#include "net/link.h"

#include <algorithm>

#include "common/check.h"

namespace lp::net {

Link::Link(sim::Simulator& sim, BandwidthTrace up, BandwidthTrace down,
           DurationNs rtt, std::uint64_t seed)
    : sim_(&sim),
      up_(std::move(up)),
      down_(std::move(down)),
      rtt_(rtt),
      rng_(seed) {
  LP_CHECK(rtt >= 0);
}

void Link::set_telemetry(obs::Telemetry* telemetry, const std::string& track) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  if (auto* tr = telemetry_->trace()) track_ = tr->track(track);
}

namespace {

const char* status_name(TransferStatus status) {
  switch (status) {
    case TransferStatus::kOk:
      return "ok";
    case TransferStatus::kTimedOut:
      return "timeout";
    case TransferStatus::kLost:
      return "lost";
  }
  return "?";
}

}  // namespace

void Link::observe(const char* dir, std::int64_t bytes, TimeNs start,
                   BitsPerSec bw, TransferStatus status) {
  if (telemetry_ == nullptr) return;
  auto& metrics = telemetry_->metrics();
  metrics.counter(std::string("net.transfer.") + status_name(status)).add();
  if (status == TransferStatus::kOk)
    metrics.counter(std::string("net.bytes.") + dir).add(bytes);
  if (auto* tr = telemetry_->trace()) {
    tr->span(track_, dir, start, sim_->now(),
             obs::TraceArgs()
                 .arg("bytes", bytes)
                 .arg("bw_mbps", bw / 1e6)
                 .arg("status", status_name(status)));
  }
}

sim::Task Link::transfer(std::int64_t bytes, const BandwidthTrace& trace,
                         const char* dir, TimeNs deadline,
                         TransferOutcome* outcome) {
  LP_CHECK(bytes >= 0);
  LP_CHECK(outcome != nullptr);
  const TimeNs start = sim_->now();
  // ~3% multiplicative jitter models MAC-layer variance; clamped so a
  // transfer can never be instant.
  const double scale = std::max(0.5, 1.0 + 0.03 * rng_.normal());

  // Blackout stall: a zero-bandwidth segment means the link is down; the
  // send begins when the trace next turns positive.
  const TimeNs begin = trace.next_positive_at(start);
  if (begin < 0) {
    // The trace never recovers; only a deadline bounds this attempt.
    LP_CHECK_MSG(deadline > 0,
                 "transfer on a permanently dead link needs a deadline");
    co_await sim_->delay(std::max<DurationNs>(0, deadline - start));
    observe(dir, bytes, start, 0.0, TransferStatus::kTimedOut);
    *outcome = {TransferStatus::kTimedOut, sim_->now() - start};
    co_return;
  }

  const BitsPerSec bw = trace.bandwidth_at(begin);
  const DurationNs send =
      rtt_ / 2 + static_cast<DurationNs>(
                     static_cast<double>(transfer_time(bytes, bw)) * scale);

  // Injected packet loss: the attempt spends a deterministic partial send
  // time on the air, then dies with a link-layer reset.
  TimeNs finish = begin + send;
  TransferStatus status = TransferStatus::kOk;
  if (faults_ != nullptr) {
    const double p = faults_->loss_prob(begin);
    if (p > 0.0 && rng_.bernoulli(p)) {
      status = TransferStatus::kLost;
      finish = begin + rtt_ / 2 +
               static_cast<DurationNs>(rng_.uniform() *
                                       static_cast<double>(send - rtt_ / 2));
    }
  }

  if (deadline > 0 && finish > deadline) {
    co_await sim_->delay(std::max<DurationNs>(0, deadline - start));
    observe(dir, bytes, start, bw, TransferStatus::kTimedOut);
    *outcome = {TransferStatus::kTimedOut, sim_->now() - start};
    co_return;
  }

  co_await sim_->delay(finish - start);
  observe(dir, bytes, start, bw, status);
  *outcome = {status, finish - start};
}

sim::Task Link::upload(std::int64_t bytes, TimeNs deadline,
                       TransferOutcome* outcome) {
  return transfer(bytes, up_, "upload", deadline, outcome);
}

sim::Task Link::download(std::int64_t bytes, TimeNs deadline,
                         TransferOutcome* outcome) {
  return transfer(bytes, down_, "download", deadline, outcome);
}

}  // namespace lp::net
