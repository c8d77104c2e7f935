// The influential factor k of the server computation load (Section III-C).
//
// The server-side runtime profiler records, for each completed DNN
// partition, the ratio of its measured execution time over the
// model-predicted time, keeps the records of the most recent monitoring
// period, and publishes their average (clamped to >= 1, constraint 1c).
// A separate GPU-utilization watcher resets k toward idle when utilization
// drops below a threshold while the device is inferring locally
// (Section IV).
//
// The tracker owns the forecaster over the k series it publishes
// (src/predict/): every record() and reset_idle() feeds it the new k, so
// signal() under the default last-value kind forecasts exactly the reactive
// value. The tracker is a plain value — both windows and the forecaster are
// held by value — so session migration copies it whole.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/units.h"
#include "core/load_signal.h"
#include "predict/load_predictor.h"

namespace lp::core {

class LoadFactorTracker {
 public:
  /// `window` = number of recent partition executions averaged;
  /// `forecaster` builds the predictor over the published k series.
  explicit LoadFactorTracker(std::size_t window = 16,
                             const predict::PredictorParams& forecaster = {});

  /// Records one completed partition execution on the server at sim time
  /// `now`, then feeds the forecaster the published k — also when the
  /// sample itself is dropped. Returns the forecaster's signed error for
  /// this instant (NaN on its first observation).
  /// `contended` says whether other work was queued on the GPU when this
  /// partition ran (the server-side profiler can see the queue): only
  /// uncontended measurements teach the idle baseline.
  /// predicted_sec must be > 0 (a partition always has modeled nodes).
  /// A measured_sec <= 0 sample is dropped (it carries no load
  /// information; a zero ratio would drag k below the observed load);
  /// negative values additionally trip an LP_DCHECK in debug builds.
  double record(double measured_sec, double predicted_sec, bool contended,
                TimeNs now);

  /// Current influential factor (>= 1). With no records, 1.
  double k() const;

  /// Idle reset used by the GPU watcher at sim time `now`: forget the
  /// loaded history so the next published k reflects an unloaded server,
  /// and feed the forecaster the step. The published k returns to the
  /// *idle baseline* — the average ratio of uncontended measurements —
  /// rather than exactly 1: by construction (Section III-C) k folds in any
  /// systematic bias of the prediction models, and that bias does not
  /// disappear with the load. With no idle measurement yet (cold start
  /// under load) the baseline is 1, which makes the device try offloading
  /// once and calibrate from that.
  void reset_idle(TimeNs now);

  /// Back to a just-constructed tracker (crash, fence, export-side wipe).
  void reset();

  /// The published k forecast `horizon` ahead (>= 1, constraint 1c); the
  /// published k itself while the forecaster has no observations.
  LoadSignal signal(DurationNs horizon) const;

  /// Mean ratio of recent uncontended executions (>= 1); 1 if none yet.
  double idle_baseline() const;

  /// Measurements recorded in the current monitoring period — i.e. since
  /// construction or the last reset_idle(), which restarts the period.
  std::uint64_t records() const { return records_; }

  /// Samples currently held in the loaded-ratio window (<= window_capacity).
  std::size_t window_size() const { return ratios_.size(); }
  std::size_t window_capacity() const { return ratios_.capacity(); }

  const predict::LoadPredictor& predictor() const { return predictor_; }

  /// Modeled wire size in a session migration: 8 bytes per sample held in
  /// either ratio window, plus the forecaster's model scalars.
  std::int64_t wire_bytes() const;

  /// Both windows (ring order and incrementally maintained sums), the
  /// record count and the forecaster: equal trackers publish the same bits
  /// from here on.
  bool operator==(const LoadFactorTracker&) const = default;

 private:
  SlidingWindow ratios_;
  SlidingWindow idle_ratios_;
  std::uint64_t records_ = 0;
  predict::LoadPredictor predictor_;
};

}  // namespace lp::core
