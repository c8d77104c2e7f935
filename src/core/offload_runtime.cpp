#include "core/offload_runtime.h"

#include <algorithm>

#include "common/check.h"

namespace lp::core {

std::string policy_name(Policy policy) {
  switch (policy) {
    case Policy::kLoadPart:
      return "LoADPart";
    case Policy::kNeurosurgeon:
      return "Neurosurgeon";
    case Policy::kLocalOnly:
      return "Local";
    case Policy::kFullOffload:
      return "FullOffload";
    case Policy::kFixedPoint:
      return "FixedPoint";
  }
  return "?";
}

namespace {
/// Multiplicative jitter factor, clamped away from zero.
double jitter_scale(Rng& rng, double frac) {
  return std::max(0.2, 1.0 + frac * rng.normal());
}

/// Multiplicative bump applied to the cached k when the server sheds a
/// request ("server busy"): the shed reply is itself a load signal, so the
/// client backs off toward local execution until the next profiler fetch
/// re-syncs with the server's published k. Applied to Policy::kLoadPart
/// only (load-oblivious baselines stay oblivious).
constexpr double kRejectKBackoff = 1.5;

/// The fault a failed transfer counts as.
FailureKind transfer_failure(net::TransferStatus status) {
  return status == net::TransferStatus::kLost ? FailureKind::kLinkDrop
                                              : FailureKind::kTimeout;
}

/// Fires at `deadline` and resolves the reply as a client-side timeout
/// unless the server resolved it first.
sim::Task watch_deadline(sim::Simulator& sim,
                         std::shared_ptr<SuffixReply> reply,
                         TimeNs deadline) {
  co_await sim.delay(std::max<DurationNs>(0, deadline - sim.now()));
  reply->resolve(SuffixStatus::kClientTimeout);
}

}  // namespace

// ----------------------------------------------------- suffix cost model --

Preparation preparation(const GraphCostProfile& profile, std::size_t p,
                        Side side) {
  LP_CHECK(p <= profile.n());
  const bool device = side == Side::kDevice;
  const double base =
      device ? hw::kDevicePartitionBaseSec : hw::kServerPartitionBaseSec;
  const double per_node =
      device ? hw::kDevicePartitionPerNodeSec : hw::kServerPartitionPerNodeSec;
  Preparation prep;
  prep.nodes = device ? profile.device_nodes(p) : profile.server_nodes(p);
  prep.sec = base + per_node * static_cast<double>(prep.nodes);
  return prep;
}

std::vector<DurationNs> suffix_kernels(const hw::GpuModel& gpu,
                                       const GraphCostProfile& profile,
                                       std::size_t p, std::size_t batch,
                                       double straggle, Rng& rng) {
  LP_CHECK(p < profile.n() && batch >= 1);
  const hw::GpuModelParams& params = gpu.params();
  const DurationNs dispatch = seconds(params.framework_dispatch_sec);
  // At batch = 1 the scale is exactly 1.0, so each kernel is t + dispatch.
  const double scale =
      1.0 + static_cast<double>(batch - 1) * params.batch_compute_frac;
  std::vector<DurationNs> kernels;
  kernels.reserve(profile.n() - p);
  for (std::size_t i = p + 1; i <= profile.n(); ++i) {
    const DurationNs t = profile.kernel_ns(i);
    if (t <= 0) continue;
    const DurationNs k =
        static_cast<DurationNs>(static_cast<double>(t) * scale) + dispatch;
    kernels.push_back(std::max<DurationNs>(
        1, static_cast<DurationNs>(static_cast<double>(k) * straggle *
                                   jitter_scale(rng, params.jitter_frac))));
  }
  return kernels;
}

// ---------------------------------------------------------------- client --

OffloadClient::OffloadClient(sim::Simulator& sim, const hw::CpuModel& cpu,
                             const GraphCostProfile& profile, net::Link& link,
                             SuffixService& server, Policy policy,
                             RuntimeParams params, std::uint64_t seed,
                             std::uint64_t session)
    : sim_(&sim),
      cpu_(&cpu),
      profile_(&profile),
      link_(&link),
      server_(&server),
      policy_(policy),
      params_(params),
      session_(session),
      cache_(params.cache_capacity),
      infer_slot_(sim, 1),
      breaker_(params.fault.breaker_failures,
               seconds(params.fault.breaker_cooldown_sec)),
      rng_(seed) {}

void OffloadClient::set_telemetry(obs::Telemetry* telemetry,
                                  const std::string& track) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  auto& metrics = telemetry_->metrics();
  for (std::size_t i = 0; i < obs::kOutcomeCount; ++i)
    outcome_counters_[i] = &metrics.counter(
        std::string("core.outcome.") +
        obs::outcome_name(static_cast<obs::Outcome>(i)));
  failure_counters_[0] = nullptr;  // kNone is not a fault
  for (std::size_t i = 1; i < obs::kFailureKindCount; ++i)
    failure_counters_[i] = &metrics.counter(
        std::string("core.failure.") +
        obs::failure_name(static_cast<obs::FailureKind>(i)));
  retry_counter_ = &metrics.counter("core.retries");
  breaker_counter_ = &metrics.counter("core.breaker_local");
  latency_ms_ = &metrics.histogram("core.request_ms", 0.0, 1000.0, 200);
  queue_wait_ms_ = &metrics.histogram("core.queue_wait_ms", 0.0, 500.0, 100);
  if (auto* tr = telemetry_->trace()) track_ = tr->track(track);
}

void OffloadClient::record_request_metrics(const InferenceRecord& rec) {
  if (telemetry_ == nullptr) return;
  outcome_counters_[static_cast<std::size_t>(rec.outcome)]->add();
  retry_counter_->add(rec.retries);
  if (rec.breaker_forced_local) breaker_counter_->add();
  latency_ms_->record(rec.total_sec * 1e3);
  if (rec.outcome == InferenceOutcome::kAdmitted)
    queue_wait_ms_->record(rec.queue_wait_sec * 1e3);
}

Decision OffloadClient::local_decision() const {
  const std::size_t n = profile_->n();
  const double bandwidth = estimator_.estimate();
  return Decision{n, profile_->predicted_latency(n, 1.0, bandwidth)};
}

Decision OffloadClient::current_decision() const {
  const std::size_t n = profile_->n();
  switch (policy_) {
    case Policy::kLoadPart:
      return decide(*profile_, k_cached_, estimator_.estimate());
    case Policy::kNeurosurgeon:
      // Bandwidth-aware but load-oblivious: k stays frozen at the first
      // value fetched (the idle-server calibration), so the partition point
      // is the one LoADPart would choose at 0% load (Section V-C).
      return decide(*profile_, k_cached_, estimator_.estimate());
    case Policy::kLocalOnly:
      return local_decision();
    case Policy::kFullOffload:
      return Decision{0, profile_->predicted_latency(
                             0, 1.0, estimator_.estimate())};
    case Policy::kFixedPoint: {
      const std::size_t p = std::min(params_.fixed_p, n);
      return Decision{p, profile_->predicted_latency(
                             p, 1.0, estimator_.estimate())};
    }
  }
  return Decision{n, 0.0};
}

void OffloadClient::rebind(SuffixService& server, std::uint64_t session) {
  server_ = &server;
  session_ = session;
  // Cold-start weights are per-server: whatever was shipped stayed behind.
  if (!params_.weights_preloaded)
    params_on_server_.assign(params_on_server_.size(), false);
  if (telemetry_ != nullptr) {
    if (auto* tr = trace())
      tr->instant(track_, "rebind", sim_->now(),
                  obs::TraceArgs().arg("session", session));
  }
}

sim::Task OffloadClient::run_suffix_locally(std::size_t p,
                                            InferenceRecord* rec) {
  const DurationNs base = profile_->device_suffix_ns(p);
  const DurationNs actual = std::max<DurationNs>(
      1, static_cast<DurationNs>(
             static_cast<double>(base) *
             jitter_scale(rng_, cpu_->params().jitter_frac)));
  const TimeNs begin = sim_->now();
  co_await sim_->delay(actual);
  rec->device_sec += to_seconds(actual);
  if (auto* tr = trace())
    tr->span(track_, "suffix-local", begin, sim_->now(),
             obs::TraceArgs().arg("p", p));
}

sim::Task OffloadClient::degrade_to_device(std::size_t p, FailureKind why,
                                           const char* event,
                                           InferenceRecord* rec) {
  // The server answered, so for the breaker this is a reachability
  // success; the shed itself is a load signal (k backs off). The uploaded
  // tensors are wasted work: the suffix finishes on the device.
  rec->outcome = InferenceOutcome::kDegradedLocal;
  rec->last_failure = why;
  if (telemetry_ != nullptr) {
    failure_counters_[static_cast<std::size_t>(why)]->add();
    if (auto* tr = trace())
      tr->instant(track_, event, sim_->now(), obs::TraceArgs().arg("p", p));
  }
  breaker_.record_success();
  if (policy_ == Policy::kLoadPart)
    k_cached_ = std::min(k_cached_ * kRejectKBackoff, 1e6);
  co_await run_suffix_locally(p, rec);
}

sim::Task OffloadClient::infer(InferenceRecord* out) {
  LP_CHECK(out != nullptr);
  co_await infer_slot_.acquire();  // one inference at a time on the device
  const auto& g = profile_->graph();
  const std::size_t n = profile_->n();

  InferenceRecord rec;
  rec.start = sim_->now();
  Decision decision = current_decision();
  // Cluster degradation: the router lost control-plane quorum and pinned
  // every client to device-local execution until it can see a majority
  // again (cheaper than thrashing reroutes against unknown servers).
  if (forced_local_ && decision.p < n) decision = local_decision();
  // An open circuit breaker pins the policy to local-only until the
  // cooldown admits a half-open probe.
  if (decision.p < n && breaker_.enabled() &&
      !breaker_.allow(sim_->now())) {
    decision = local_decision();
    rec.breaker_forced_local = true;
  }
  rec.p = decision.p;
  rec.predicted_sec = decision.predicted_latency;
  rec.k_used = policy_ == Policy::kLoadPart ||
                       policy_ == Policy::kNeurosurgeon
                   ? k_cached_
                   : 1.0;
  rec.bandwidth_est_bps = estimator_.estimate();
  const std::size_t p = decision.p;

  if (auto* tr = trace()) {
    tr->instant(track_, "partition-decision", rec.start,
                obs::TraceArgs()
                    .arg("p", p)
                    .arg("k", rec.k_used)
                    .arg("bw_mbps", rec.bandwidth_est_bps / 1e6)
                    .arg("predicted_ms", rec.predicted_sec * 1e3)
                    .arg("breaker_forced_local", rec.breaker_forced_local));
  }

  // Device-side partition cache.
  if (!cache_.find(p)) {
    const Preparation prep = preparation(*profile_, p, Side::kDevice);
    rec.overhead_sec += prep.sec;
    const TimeNs prep_begin = sim_->now();
    co_await sim_->delay(seconds(prep.sec));
    if (auto* tr = trace())
      tr->span(track_, "partition-prepare", prep_begin, sim_->now(),
               obs::TraceArgs().arg("p", p).arg("nodes", prep.nodes));
    cache_.insert(p);
  }

  // Execute the device prefix {L1..Lp}.
  if (p > 0) {
    const DurationNs base = profile_->device_prefix_ns(p);
    const DurationNs actual = std::max<DurationNs>(
        1, static_cast<DurationNs>(
               static_cast<double>(base) *
               jitter_scale(rng_, cpu_->params().jitter_frac)));
    const TimeNs exec_begin = sim_->now();
    co_await sim_->delay(actual);
    if (auto* tr = trace())
      tr->span(track_, "prefix-exec", exec_begin, sim_->now(),
               obs::TraceArgs().arg("p", p));
    rec.device_sec = to_seconds(actual);
  }

  if (p < n) {
    // Cold start (IONN setting): ship any suffix Parameters the server
    // does not hold yet before the partition can execute there.
    if (!params_.weights_preloaded) {
      if (params_on_server_.empty())
        params_on_server_.assign(g.node_count(), false);
      std::int64_t missing = 0;
      for (std::size_t i = p + 1; i <= n; ++i) {
        for (graph::NodeId in : g.node(g.backbone()[i]).inputs) {
          const auto& src = g.node(in);
          if (!src.is_param() ||
              params_on_server_[static_cast<std::size_t>(in)])
            continue;
          missing += src.output.bytes();
          params_on_server_[static_cast<std::size_t>(in)] = true;
        }
      }
      if (missing > 0) {
        net::TransferOutcome weights;
        co_await link_->upload(missing, 0, &weights);
        // Only a delivered transfer is a bandwidth observation.
        const DurationNs weights_ns =
            weights.status == net::TransferStatus::kOk ? weights.elapsed : 0;
        rec.weight_upload_sec = to_seconds(weights_ns);
        rec.upload_bytes += missing;
        estimator_.add_transfer(missing, weights_ns);
      }
    }

    // Ship the boundary tensors (plus the partition-point header), submit
    // the suffix, wait for the result, download it. Each of those steps
    // can fault; the device still holds the boundary tensor at the cut, so
    // a failed attempt is retried (with backoff) or failed over to local
    // execution of {Lp+1..Ln} — never re-run from scratch.
    const std::int64_t payload = profile_->s(p) + kHeaderBytes;
    const auto& fp = params_.fault;
    bool resolved = false;
    for (int attempt = 0; !resolved;) {
      const TimeNs attempt_deadline =
          fp.rpc_timeout_sec > 0.0
              ? sim_->now() + seconds(fp.rpc_timeout_sec)
              : 0;
      FailureKind failure = FailureKind::kNone;

      net::TransferOutcome up;
      co_await link_->upload(payload, attempt_deadline, &up);
      if (up.status == net::TransferStatus::kOk) {
        rec.upload_sec += to_seconds(up.elapsed);
        rec.upload_bytes += payload;
        // Passive bandwidth measurement (Section IV): real uploads feed
        // the sliding window alongside the active probes.
        estimator_.add_transfer(payload, up.elapsed);
      } else {
        failure = transfer_failure(up.status);
      }

      if (failure == FailureKind::kNone) {
        auto reply = std::make_shared<SuffixReply>(*sim_);
        SuffixRequest request;
        request.p = p;
        request.reply = reply;
        request.session = session_;
        if (params_.slo_sec > 0.0)
          request.deadline = rec.start + seconds(params_.slo_sec);
        request.bandwidth_bps = estimator_.estimate();
        const SubmitStatus submit = server_->submit(request);
        if (submit == SubmitStatus::kRejected) {
          // "Server busy": the frontend shed the request at admission.
          co_await degrade_to_device(p, FailureKind::kShed, "shed", &rec);
          resolved = true;
          continue;
        }
        if (submit == SubmitStatus::kDown) {
          // Connection refused: the server is crashed.
          failure = FailureKind::kServerDown;
        } else {
          if (attempt_deadline > 0)
            sim_->spawn(watch_deadline(*sim_, reply, attempt_deadline));
          const TimeNs wait_begin = sim_->now();
          co_await reply->done.wait();
          if (auto* tr = trace()) {
            tr->span(track_, "suffix-wait", wait_begin, sim_->now(),
                     obs::TraceArgs()
                         .arg("p", p)
                         .arg("served",
                              reply->status == SuffixStatus::kServed)
                         .arg("queue_wait_ms", reply->queue_wait * 1e3)
                         .arg("exec_ms", reply->exec * 1e3));
          }
          if (reply->status == SuffixStatus::kServed) {
            net::TransferOutcome down;
            co_await link_->download(g.output_desc().bytes(),
                                     attempt_deadline, &down);
            if (down.status == net::TransferStatus::kOk) {
              rec.server_sec = reply->exec;
              rec.overhead_sec += reply->overhead;
              rec.queue_wait_sec = reply->queue_wait;
              rec.outcome = InferenceOutcome::kAdmitted;
              rec.download_sec = to_seconds(down.elapsed);
              rec.download_bytes = g.output_desc().bytes();
              breaker_.record_success();
              resolved = true;
              continue;
            }
            failure = transfer_failure(down.status);
          } else if (reply->status == SuffixStatus::kDeadlineShed) {
            // The dispatcher dropped the job because its deadline had
            // already passed in queue — retrying cannot beat a deadline
            // that is already gone, so this resolves exactly like an
            // admission shed.
            co_await degrade_to_device(p, FailureKind::kDeadlineShed,
                                       "deadline-shed", &rec);
            resolved = true;
            continue;
          } else {
            // kFenced means the serving placement was superseded while the
            // job waited — from the client's side that is the same "this
            // endpoint cannot answer" fault as a crash: retry (the rebind
            // hook has usually moved the endpoint already) or fall back.
            failure = reply->status == SuffixStatus::kClientTimeout
                          ? FailureKind::kTimeout
                          : FailureKind::kServerDown;
          }
        }
      }

      // A fault-type failure (timeout / link-drop / server-down).
      rec.last_failure = failure;
      ++rec.faults;
      if (telemetry_ != nullptr) {
        failure_counters_[static_cast<std::size_t>(failure)]->add();
        if (auto* tr = trace())
          tr->instant(track_, "fault", sim_->now(),
                      obs::TraceArgs()
                          .arg("kind", obs::failure_name(failure))
                          .arg("attempt", attempt));
      }
      breaker_.record_failure(sim_->now());
      if (attempt < fp.max_retries) {
        ++attempt;
        ++rec.retries;
        if (auto* tr = trace())
          tr->instant(track_, "retry", sim_->now(),
                      obs::TraceArgs().arg("attempt", attempt));
        co_await sim_->delay(fp.backoff.delay(attempt, rng_));
        continue;
      }
      // Retry budget exhausted: fail over to the device (the boundary
      // tensor is still here) or drop the request (fail-stop).
      if (fp.local_fallback) {
        rec.outcome = InferenceOutcome::kRecoveredLocal;
        if (auto* tr = trace())
          tr->instant(track_, "fallback-local", sim_->now(),
                      obs::TraceArgs().arg("p", p));
        co_await run_suffix_locally(p, &rec);
      } else {
        rec.outcome = InferenceOutcome::kFailed;
        if (auto* tr = trace()) tr->instant(track_, "dropped", sim_->now());
      }
      resolved = true;
    }
  }

  rec.total_sec = to_seconds(sim_->now() - rec.start);
  if (auto* tr = trace()) {
    tr->span(track_, "request", rec.start, sim_->now(),
             obs::TraceArgs()
                 .arg("p", rec.p)
                 .arg("outcome", obs::outcome_name(rec.outcome))
                 .arg("failure", obs::failure_name(rec.last_failure))
                 .arg("predicted_ms", rec.predicted_sec * 1e3)
                 .arg("total_ms", rec.total_sec * 1e3)
                 .arg("retries", rec.retries));
  }
  record_request_metrics(rec);
  *out = rec;
  infer_slot_.release();
}

void OffloadClient::start_runtime_profiler(DurationNs period) {
  sim_->spawn(runtime_profiler(period));
}

sim::Task OffloadClient::runtime_profiler(DurationNs period) {
  LP_CHECK(period > 0);
  const double timeout = params_.fault.rpc_timeout_sec;
  for (;;) {
    // Active bandwidth probe; size adapts to the current estimate.
    const std::int64_t probe = estimator_.next_probe_bytes();
    net::TransferOutcome probe_out;
    co_await link_->upload(
        probe, timeout > 0.0 ? sim_->now() + seconds(timeout) : 0,
        &probe_out);
    if (probe_out.status == net::TransferStatus::kOk) {
      estimator_.add_transfer(probe, probe_out.elapsed);
    } else if (probe_out.status == net::TransferStatus::kTimedOut &&
               probe_out.elapsed > 0) {
      // Censored observation: the probe did NOT finish within `elapsed`, so
      // bytes/elapsed upper-bounds the true bandwidth. Feeding it keeps the
      // estimator tracking during blackouts instead of going blind (a lost
      // probe teaches nothing — loss is bandwidth-independent).
      estimator_.add_sample(static_cast<double>(probe) * 8.0 /
                            to_seconds(probe_out.elapsed));
    }

    // Ask the server-side profiler for the latest load signal (small
    // control message, one round trip), with k forecast one profiler
    // period ahead — the value will steer decisions until the next fetch.
    // The Neurosurgeon baseline keeps only the first (idle-calibration)
    // value. A crashed server refuses the fetch; the cached k survives
    // until the next successful round trip.
    if (server_->alive()) {
      net::TransferOutcome ctl;
      co_await link_->upload(
          kHeaderBytes, timeout > 0.0 ? sim_->now() + seconds(timeout) : 0,
          &ctl);
      if (ctl.status == net::TransferStatus::kOk && server_->alive()) {
        const LoadSignal signal = server_->load_signal(session_, period);
        co_await link_->download(
            kHeaderBytes, timeout > 0.0 ? sim_->now() + seconds(timeout) : 0,
            &ctl);
        if (ctl.status == net::TransferStatus::kOk &&
            (policy_ != Policy::kNeurosurgeon || !k_fetched_once_)) {
          k_cached_ = signal.k_forecast;
          k_fetched_once_ = true;
        }
      }
    }

    co_await sim_->delay(period);
  }
}

}  // namespace lp::core
