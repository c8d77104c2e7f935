#include "net/bandwidth_trace.h"

#include "common/check.h"
#include "fault/fault_plan.h"

namespace lp::net {

BandwidthTrace::BandwidthTrace(std::vector<Step> steps)
    : steps_(std::move(steps)) {
  LP_CHECK(!steps_.empty());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    LP_CHECK(steps_[i].bandwidth >= 0.0);
    if (i) LP_CHECK_MSG(steps_[i].at >= steps_[i - 1].at, "unsorted trace");
  }
}

BandwidthTrace BandwidthTrace::constant(BitsPerSec bandwidth) {
  return BandwidthTrace({{0, bandwidth}});
}

BandwidthTrace BandwidthTrace::fig6_sweep(DurationNs phase) {
  const double sequence[] = {8, 4, 2, 1, 2, 4, 8, 16, 32, 64};
  std::vector<Step> steps;
  TimeNs t = 0;
  for (double m : sequence) {
    steps.push_back({t, mbps(m)});
    t += phase;
  }
  return BandwidthTrace(std::move(steps));
}

BitsPerSec BandwidthTrace::bandwidth_at(TimeNs t) const {
  BitsPerSec bw = steps_.front().bandwidth;
  for (const auto& s : steps_) {
    if (s.at > t) break;
    bw = s.bandwidth;
  }
  return bw;
}

TimeNs BandwidthTrace::next_positive_at(TimeNs t) const {
  if (bandwidth_at(t) > 0.0) return t;
  for (const auto& s : steps_)
    if (s.at > t && s.bandwidth > 0.0) return s.at;
  return -1;
}

BandwidthTrace apply_link_faults(const BandwidthTrace& base,
                                 const fault::FaultPlan& plan) {
  BandwidthTrace trace = base;
  for (const fault::FaultPlan::LinkFault& f : plan.link_faults()) {
    const TimeNs begin = f.window.begin;
    const TimeNs end = f.window.end;
    const BitsPerSec resume = trace.bandwidth_at(end);
    std::vector<BandwidthTrace::Step> steps;
    for (const auto& s : trace.steps())
      if (s.at < begin) steps.push_back(s);
    steps.push_back({begin, f.bandwidth});
    steps.push_back({end, resume});
    for (const auto& s : trace.steps())
      if (s.at > end) steps.push_back(s);
    trace = BandwidthTrace(std::move(steps));
  }
  return trace;
}

}  // namespace lp::net
