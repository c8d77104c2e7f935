// LoadSignal: the one typed view of a service's load.
//
// Every per-session load consumer — the client's decide() path and the
// frontend's admission control — used to read its own ad-hoc scalar
// (session_k(), raw LoadSnapshot fields). They all read this struct now.
// LoadFactorTracker::signal() fills the k fields from the tracker and the
// forecaster it owns (src/predict/), and the frontend adds backlog_sec, so
// swapping the reactive value for a forecast needs no per-consumer
// surgery: the producer fills k_forecast and backlog_sec for the caller's
// horizon and the consumers are done. The cluster router reads only the
// server-wide backlog forecast, which serve::LoadSnapshot carries as
// forecast_delay_sec.
#pragma once

#include "common/units.h"

namespace lp::core {

struct LoadSignal {
  /// The influential factor as published right now (>= 1, reactive).
  double k_now = 1.0;
  /// k forecast `horizon` ahead by the tracker's forecaster (>= 1). Equals
  /// k_now under the default last-value predictor, or while the predictor
  /// has no observations yet.
  double k_forecast = 1.0;
  /// Predicted queue delay a new arrival would see at the horizon: the
  /// live backlog plus the forecast drift (zero drift under last-value).
  double backlog_sec = 0.0;
  /// Staleness of the newest observation behind the forecast; 0 when the
  /// predictor is empty.
  DurationNs age_ns = 0;
  /// Predictor trust in [0, 1] (0 = no observations yet).
  double confidence = 0.0;
};

}  // namespace lp::core
