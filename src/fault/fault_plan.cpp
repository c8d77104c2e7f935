#include "fault/fault_plan.h"

#include "common/check.h"
#include "common/rng.h"

namespace lp::fault {

namespace {
void check_window(TimeNs begin, TimeNs end) {
  LP_CHECK(begin >= 0);
  LP_CHECK_MSG(end > begin, "empty fault window");
}
}  // namespace

FaultPlan& FaultPlan::link_blackout(TimeNs begin, TimeNs end) {
  return link_degrade(begin, end, 0.0);
}

FaultPlan& FaultPlan::link_degrade(TimeNs begin, TimeNs end,
                                   BitsPerSec bandwidth) {
  check_window(begin, end);
  LP_CHECK(bandwidth >= 0.0);
  link_faults_.push_back({{begin, end}, bandwidth});
  return *this;
}

FaultPlan& FaultPlan::packet_loss(TimeNs begin, TimeNs end, double prob) {
  check_window(begin, end);
  LP_CHECK(prob >= 0.0 && prob <= 1.0);
  loss_windows_.push_back({{begin, end}, prob});
  return *this;
}

FaultPlan& FaultPlan::server_crash(TimeNs crash, TimeNs restart) {
  check_window(crash, restart);
  if (!server_crashes_.empty())
    LP_CHECK_MSG(crash >= server_crashes_.back().end,
                 "crash windows must be added in order and not overlap");
  server_crashes_.push_back({crash, restart});
  return *this;
}

FaultPlan& FaultPlan::straggle(TimeNs begin, TimeNs end, double factor) {
  check_window(begin, end);
  LP_CHECK(factor >= 1.0);
  straggles_.push_back({{begin, end}, factor});
  return *this;
}

FaultPlan FaultPlan::gilbert_elliott_link(DurationNs total,
                                          BitsPerSec bad_bandwidth,
                                          DurationNs mean_good_dwell,
                                          DurationNs mean_bad_dwell,
                                          std::uint64_t seed) {
  LP_CHECK(total > 0 && bad_bandwidth >= 0.0);
  LP_CHECK(mean_good_dwell > 0 && mean_bad_dwell > 0);
  Rng rng(seed);
  FaultPlan plan;
  TimeNs t = 0;
  for (;;) {
    t += static_cast<DurationNs>(
        rng.exponential(static_cast<double>(mean_good_dwell)));
    if (t >= total) break;
    const TimeNs bad_end =
        t + std::max<DurationNs>(
                1, static_cast<DurationNs>(rng.exponential(
                       static_cast<double>(mean_bad_dwell))));
    plan.link_degrade(t, bad_end, bad_bandwidth);
    t = bad_end;
    if (t >= total) break;
  }
  return plan;
}

bool FaultPlan::link_down(TimeNs t) const {
  bool down = false;
  for (const LinkFault& f : link_faults_)
    if (f.window.contains(t)) down = f.bandwidth <= 0.0;
  return down;
}

double FaultPlan::loss_prob(TimeNs t) const {
  double prob = 0.0;
  for (const LossWindow& w : loss_windows_)
    if (w.window.contains(t)) prob = w.prob;
  return prob;
}

bool FaultPlan::drops(TimeNs t, Rng& rng) const {
  if (link_down(t)) return true;
  const double p = loss_prob(t);
  return p > 0.0 && rng.uniform() < p;
}

bool FaultPlan::server_down(TimeNs t) const {
  for (const FaultWindow& w : server_crashes_)
    if (w.contains(t)) return true;
  return false;
}

double FaultPlan::straggle_factor(TimeNs t) const {
  double factor = 1.0;
  for (const StraggleWindow& w : straggles_)
    if (w.window.contains(t)) factor = w.factor;
  return factor;
}

}  // namespace lp::fault
