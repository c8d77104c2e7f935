// LoadSignal: the one typed view of a service's load.
//
// Every per-session load consumer — the client's profiler fetch and the
// frontend's admission control — reads this struct, and both act on one
// quantity: the influential factor k (Section III-C), forecast to the
// consumer's horizon. LoadFactorTracker::signal() fills it from the
// tracker and the forecaster it owns (src/predict/), so swapping the
// reactive value for a forecast needs no per-consumer surgery. The cluster
// router reads only the server-wide backlog forecast, which
// serve::LoadSnapshot carries as forecast_delay_sec.
#pragma once

namespace lp::core {

struct LoadSignal {
  /// k forecast `horizon` ahead by the tracker's forecaster (>= 1). Equals
  /// the published k under the default last-value predictor, or while the
  /// predictor has no observations yet.
  double k_forecast = 1.0;
};

}  // namespace lp::core
