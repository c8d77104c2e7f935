// Simulated device<->server network link.
//
// Transfer time = RTT/2 + bytes / bandwidth(t) with a small lognormal-ish
// jitter, where bandwidth follows a BandwidthTrace. This is the entire role
// the WiFi link plays in the paper: the partition algorithm only consumes
// s_p / B_u (and ignores the download term, Section IV).
//
// ## Failure contract
//
// Bandwidth is sampled when the transfer starts sending. A zero-bandwidth
// trace segment is a hard blackout: a transfer that starts inside one makes
// no progress and stalls until the trace next becomes positive, then sends
// at the recovered bandwidth (it is NOT scheduled at an absurdly-far
// completion time by dividing by ~zero). If the trace never recovers the
// transfer can never complete, so callers that may face a blackout MUST
// pass a deadline; a no-deadline transfer on a permanently dead link is a
// contract error.
//
// With a deadline (absolute sim time; 0 = none), a transfer that cannot
// complete by it gives up exactly at the deadline and reports
// TransferStatus::kTimedOut. An attached FaultPlan additionally injects
// per-transfer packet loss: a lost transfer spends a deterministic partial
// send time, then reports kLost (a link-layer reset, not a silent hang).
// Only a kOk outcome's `elapsed` is a bandwidth observation: the passive
// estimator must not learn from aborted sends.
#pragma once

#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "net/bandwidth_trace.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace lp::net {

enum class TransferStatus : std::uint8_t {
  kOk,        ///< delivered
  kTimedOut,  ///< gave up at the deadline (blackout or too slow)
  kLost,      ///< dropped mid-flight by injected packet loss
};

struct TransferOutcome {
  TransferStatus status = TransferStatus::kOk;
  DurationNs elapsed = 0;  ///< wall time spent on the attempt
};

class Link {
 public:
  Link(sim::Simulator& sim, BandwidthTrace up, BandwidthTrace down,
       DurationNs rtt = milliseconds(2), std::uint64_t seed = 11);

  /// Uploads `bytes`; completes after the (jittered) transfer time.
  /// `deadline` (absolute; 0 = none) bounds the attempt; `outcome` receives
  /// the typed result and the time spent — on success, the actual duration
  /// the runtime profiler passively observes bandwidth from.
  sim::Task upload(std::int64_t bytes, TimeNs deadline,
                   TransferOutcome* outcome);
  sim::Task download(std::int64_t bytes, TimeNs deadline,
                     TransferOutcome* outcome);

  /// Wires packet-loss injection (FaultPlan::packet_loss windows). The plan
  /// must outlive the link; null detaches.
  void attach_faults(const fault::FaultPlan* plan) { faults_ = plan; }

  /// Attaches telemetry (null detaches): every transfer then records an
  /// "upload"/"download" span on `track` tagged with bytes, the sampled
  /// bandwidth and the outcome, and bumps net.* counters. Pass the owning
  /// client's track name so transfer spans nest under its request spans.
  /// Purely observational — attaching never changes link behavior.
  void set_telemetry(obs::Telemetry* telemetry, const std::string& track);

  DurationNs rtt() const { return rtt_; }

 private:
  sim::Task transfer(std::int64_t bytes, const BandwidthTrace& trace,
                     const char* dir, TimeNs deadline,
                     TransferOutcome* outcome);
  void observe(const char* dir, std::int64_t bytes, TimeNs start,
               BitsPerSec bw, TransferStatus status);

  sim::Simulator* sim_;
  BandwidthTrace up_;
  BandwidthTrace down_;
  DurationNs rtt_;
  const fault::FaultPlan* faults_ = nullptr;
  Rng rng_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::TrackId track_ = 0;
};

}  // namespace lp::net
