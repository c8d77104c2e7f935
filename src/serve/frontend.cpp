#include "serve/frontend.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lp::serve {

void FrontendCounters::publish(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"submitted", submitted},
      {"admitted", admitted},
      {"shed", shed},
      {"refused", refused},
      {"served", served},
      {"failed_jobs", failed_jobs},
      {"dispatches", dispatches},
      {"batched_dispatches", batched_dispatches},
      {"batched_jobs", batched_jobs},
      {"crashes", crashes},
      {"migrated_in", migrated_in},
      {"migrated_out", migrated_out},
      {"fenced_jobs", fenced_jobs},
      {"deadline_shed", deadline_shed},
      {"deadline_shed_admission", deadline_shed_admission},
      {"rejected_imports", rejected_imports},
  };
  for (const auto& [name, count] : counts)
    registry.counter(prefix + "." + name).add(std::int64_t(count));
}

EdgeServerFrontend::EdgeServerFrontend(sim::Simulator& sim,
                                       hw::GpuScheduler& scheduler,
                                       const hw::GpuModel& gpu,
                                       FrontendParams params,
                                       core::RuntimeParams runtime,
                                       std::uint64_t seed)
    : sim_(&sim),
      scheduler_(&scheduler),
      gpu_(&gpu),
      params_(params),
      runtime_(runtime),
      ctx_(scheduler.create_context("serve-frontend")),
      queue_(params.policy, params.queue_capacity),
      work_arrived_(sim),
      rng_(seed) {
  LP_CHECK(params_.max_batch >= 1);
  sim_->spawn(service());
}

std::uint64_t EdgeServerFrontend::open_session(
    const core::GraphCostProfile& profile) {
  sessions_.push_back(Session{
      &profile, core::LoadFactorTracker(runtime_.k_window, runtime_.predictor),
      partition::PartitionCache(runtime_.cache_capacity)});
  return sessions_.size() - 1;
}

core::LoadSignal EdgeServerFrontend::load_signal(std::uint64_t session,
                                                 DurationNs horizon) const {
  LP_CHECK(session < sessions_.size());
  return sessions_[session].k.signal(horizon);
}

void EdgeServerFrontend::note_forecast_error(double err) {
  if (!std::isfinite(err)) return;  // a predictor's first sample is unscored
  predict_abs_err_ += std::abs(err);
  predict_err_ += err;
  ++predict_scored_;
  if (telemetry_ != nullptr) {
    predict_scored_counter_->add();
    const double n = static_cast<double>(predict_scored_);
    predict_mae_gauge_->set(predict_abs_err_ / n);
    predict_bias_gauge_->set(predict_err_ / n);
  }
}

const partition::PartitionCache& EdgeServerFrontend::session_cache(
    std::uint64_t session) const {
  LP_CHECK(session < sessions_.size());
  return sessions_[session].cache;
}

const core::LoadFactorTracker& EdgeServerFrontend::session_tracker(
    std::uint64_t session) const {
  LP_CHECK(session < sessions_.size());
  return sessions_[session].k;
}

double EdgeServerFrontend::predicted_queue_delay_sec() const {
  return queue_.predicted_backlog_sec() + in_flight_sec_;
}

LoadSnapshot EdgeServerFrontend::load_snapshot() const {
  LoadSnapshot s;
  static_cast<FrontendCounters&>(s) = counters_;
  s.alive = !down_;
  s.queue_depth = queue_.size();
  s.inflight_jobs = inflight_jobs();
  s.predicted_delay_sec = predicted_queue_delay_sec();
  if (predict_scored_ > 0) {
    const double n = static_cast<double>(predict_scored_);
    s.predict_mae = predict_abs_err_ / n;
    s.predict_bias = predict_err_ / n;
  }
  s.predict_scored = predict_scored_;
  return s;
}

EdgeServerFrontend::SessionStats EdgeServerFrontend::session_stats(
    std::uint64_t session) const {
  LP_CHECK(session < sessions_.size());
  return sessions_[session].stats;
}

namespace {
// Modeled wire cost of a session export: a fixed header, the k tracker
// (LoadFactorTracker::wire_bytes), a serialized partition per cache entry
// (the cache itself holds only keys), and a header per re-routed job (the
// boundary tensors themselves stay with the jobs' origin upload — only
// control state crosses the interconnect).
constexpr std::int64_t kExportHeaderBytes = 256;
constexpr std::int64_t kPlanBytes = 4096;
constexpr std::int64_t kJobHeaderBytes = 256;
}  // namespace

SessionExport EdgeServerFrontend::export_session(std::uint64_t session) {
  LP_CHECK(session < sessions_.size());
  Session& s = sessions_[session];
  SessionExport ex;
  ex.state = {s.k, s.cache};
  // The local copy resets to fresh: stragglers submitted before the client
  // learns its new endpoint are still served here, against cold state.
  wipe(s);

  ex.jobs = queue_.take_session(session);
  counters_.migrated_out += ex.jobs.size();

  ex.bytes = kExportHeaderBytes + ex.state.k.wire_bytes() +
             kPlanBytes * static_cast<std::int64_t>(ex.state.cache.size()) +
             kJobHeaderBytes * static_cast<std::int64_t>(ex.jobs.size());

  if (auto* tr = trace()) {
    // The exported jobs' queue-wait intervals close here; the importer
    // opens fresh ones on its own track.
    for (const QueuedJob& job : ex.jobs)
      tr->async_end(track_, "queue-wait", job.seq, sim_->now());
    tr->instant(track_, "export-session", sim_->now(),
                obs::TraceArgs()
                    .arg("session", session)
                    .arg("jobs", ex.jobs.size())
                    .arg("bytes", ex.bytes));
    observe_queue_depth();
  }
  return ex;
}

bool EdgeServerFrontend::import_session(std::uint64_t session,
                                        SessionExport ex) {
  LP_CHECK(session < sessions_.size());
  // Every server of a cluster shares one RuntimeParams; a payload shaped
  // by other params would not read the same bits here.
  LP_CHECK_MSG(ex.state.k.window_capacity() == runtime_.k_window,
               "imported k window capacity differs from this server's");
  LP_CHECK_MSG(ex.state.k.predictor().name() == runtime_.predictor.kind,
               "imported forecaster kind differs from this server's");
  LP_CHECK_MSG(ex.state.cache.capacity() == runtime_.cache_capacity,
               "imported cache capacity differs from this server's");
  if (ex.epoch < sessions_[session].fence) {
    // Zombie payload: a newer fence already superseded this transfer (the
    // migration was aborted or the session re-homed). The caller keeps
    // ownership of the jobs; nothing here is touched.
    ++counters_.rejected_imports;
    if (auto* tr = trace())
      tr->instant(track_, "import-rejected", sim_->now(),
                  obs::TraceArgs()
                      .arg("session", session)
                      .arg("epoch", ex.epoch)
                      .arg("fence", sessions_[session].fence));
    return false;
  }
  if (!down_) {
    Session& s = sessions_[session];
    s.k = std::move(ex.state.k);
    s.cache = std::move(ex.state.cache);
  }
  const std::size_t jobs = ex.jobs.size();
  for (QueuedJob& job : ex.jobs) {
    job.session = session;
    job.seq = next_seq_++;
    job.epoch = ex.epoch;
    ++counters_.migrated_in;
    if (down_) {
      // Fail-stop target: the job must not hang in limbo. It counts as
      // migrated-in then failed, so conservation holds on both servers.
      ++counters_.failed_jobs;
      job.reply->resolve(core::SuffixStatus::kServerDown);
      continue;
    }
    // The original admission timestamp rides along: the measured queue
    // wait honestly spans the migration.
    queue_.push_migrated(job);
    if (auto* tr = trace())
      tr->async_begin(track_, "queue-wait", job.seq, sim_->now(),
                      obs::TraceArgs()
                          .arg("session", job.session)
                          .arg("p", job.p)
                          .arg("migrated", true));
  }
  if (auto* tr = trace()) {
    tr->instant(track_, "import-session", sim_->now(),
                obs::TraceArgs().arg("session", session).arg("jobs", jobs));
    observe_queue_depth();
  }
  if (!down_ && jobs > 0) work_arrived_.trigger();
  return true;
}

std::size_t EdgeServerFrontend::fence_session(std::uint64_t session,
                                              std::uint64_t epoch) {
  LP_CHECK(session < sessions_.size());
  Session& s = sessions_[session];
  if (epoch <= s.fence) return 0;  // raising-only, idempotent
  s.fence = epoch;

  // Queued jobs from the superseded placement die typed: the client
  // retries at the session's new home. Jobs already stamped with the new
  // epoch (an accepted import racing the fence) survive and re-enter the
  // queue past the capacity bound — they were admitted once already.
  std::size_t fenced = 0;
  for (QueuedJob& job : queue_.take_session(session)) {
    if (job.epoch >= epoch) {
      queue_.push_migrated(job);
      continue;
    }
    ++fenced;
    ++counters_.failed_jobs;
    ++counters_.fenced_jobs;
    if (auto* tr = trace())
      tr->async_end(track_, "queue-wait", job.seq, sim_->now());
    job.reply->resolve(core::SuffixStatus::kFenced);
  }
  // The in-flight dispatch, if it holds the session, is fenced at
  // completion (execute_batch re-checks job.epoch against the fence).
  // Volatile state resets: a zombie's windows describe a placement the
  // session has left.
  wipe(s);
  if (auto* tr = trace()) {
    tr->instant(track_, "fence-session", sim_->now(),
                obs::TraceArgs()
                    .arg("session", session)
                    .arg("epoch", epoch)
                    .arg("fenced_jobs", fenced));
    observe_queue_depth();
  }
  return fenced;
}

std::uint64_t EdgeServerFrontend::session_fence(std::uint64_t session) const {
  LP_CHECK(session < sessions_.size());
  return sessions_[session].fence;
}

void EdgeServerFrontend::set_telemetry(obs::Telemetry* telemetry,
                                       const std::string& track) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  auto& metrics = telemetry_->metrics();
  batch_occupancy_ = &metrics.histogram("serve.batch_occupancy", 0.0, 32.0,
                                        32);
  queue_wait_ms_ = &metrics.histogram("serve.queue_wait_ms", 0.0, 500.0, 100);
  predict_mae_gauge_ = &metrics.gauge("predict.mae");
  predict_bias_gauge_ = &metrics.gauge("predict.bias");
  predict_scored_counter_ = &metrics.counter("predict.scored");
  if (auto* tr = telemetry_->trace()) track_ = tr->track(track);
}

void EdgeServerFrontend::observe_queue_depth() {
  if (auto* tr = trace())
    tr->counter(track_, "queue_depth", sim_->now(),
                static_cast<double>(queue_.size()));
}

core::SubmitStatus EdgeServerFrontend::submit(core::SuffixRequest request) {
  LP_CHECK(request.reply != nullptr);
  LP_CHECK(request.session < sessions_.size());
  Session& session = sessions_[request.session];
  LP_CHECK_MSG(request.p < session.profile->n(),
               "nothing to execute on the server at p = n");
  ++counters_.submitted;
  ++session.stats.submitted;
  if (down_) {
    // Connection refused: a crashed server cannot even shed politely.
    ++counters_.refused;
    if (auto* tr = trace())
      tr->instant(track_, "refuse", sim_->now(),
                  obs::TraceArgs().arg("session", request.session));
    return core::SubmitStatus::kDown;
  }

  // Load shedding: a full queue always sheds; with admission control on,
  // so does a predicted queue delay beyond the budget. The server-side
  // prediction uses the session's own load signal, not the client's,
  // forecast to when the job will actually run (the current queue delay).
  const core::LoadSignal sig = load_signal(
      request.session, seconds(predicted_queue_delay_sec()));
  const double predicted =
      sig.k_forecast * session.profile->suffix_g(request.p);
  const bool over_budget =
      params_.admission_control &&
      predicted_queue_delay_sec() > params_.delay_budget_sec;
  // Deadline admission: shed when the request provably cannot make its own
  // deadline — predicted queue delay, predicted service, and the result
  // download at the client's reported bandwidth already overrun it. The
  // comparison stays in double so an enormous slack never overflows TimeNs.
  bool over_deadline = false;
  if (params_.deadline_admission && request.deadline != core::kNoDeadline) {
    double eta_sec = predicted_queue_delay_sec() + predicted;
    if (request.bandwidth_bps > 0.0)
      eta_sec += static_cast<double>(
                     session.profile->graph().output_desc().bytes() * 8) /
                 request.bandwidth_bps;
    over_deadline = static_cast<double>(request.deadline - sim_->now()) <
                    eta_sec * 1e9;
  }
  if (queue_.full() || over_budget || over_deadline) {
    ++counters_.shed;
    if (over_deadline) ++counters_.deadline_shed_admission;
    if (auto* tr = trace()) {
      obs::TraceArgs args;
      args.arg("session", request.session).arg("queue_full", queue_.full());
      // Only stamped when deadline admission is on, so legacy traces stay
      // byte-identical.
      if (params_.deadline_admission) args.arg("will_miss", over_deadline);
      args.arg("predicted_delay_sec", predicted_queue_delay_sec());
      tr->instant(track_, "shed", sim_->now(), args);
    }
    return core::SubmitStatus::kRejected;
  }

  QueuedJob job;
  job.seq = next_seq_++;
  job.session = request.session;
  job.profile = session.profile;
  job.p = request.p;
  job.deadline = request.deadline;
  job.enqueued = sim_->now();
  job.predicted_sec = predicted;
  job.reply = std::move(request.reply);
  job.epoch = session.fence;
  LP_CHECK(queue_.push(job));
  ++counters_.admitted;
  if (auto* tr = trace()) {
    tr->async_begin(track_, "queue-wait", job.seq, sim_->now(),
                    obs::TraceArgs()
                        .arg("session", job.session)
                        .arg("p", job.p));
    observe_queue_depth();
  }
  work_arrived_.trigger();
  return core::SubmitStatus::kAccepted;
}

sim::Task EdgeServerFrontend::service() {
  for (;;) {
    while (queue_.empty()) {
      work_arrived_.reset();
      co_await work_arrived_.wait();
    }
    // Batching window: give compatible jobs a chance to arrive before the
    // dispatch is formed (a latency-for-throughput trade).
    if (params_.max_batch > 1 && params_.batch_window > 0)
      co_await sim_->delay(params_.batch_window);
    // A crash during the window drains the queue out from under us.
    if (queue_.empty()) continue;

    // Will-miss shedding happens at the last moment before the dispatch is
    // formed: any job whose deadline passed while it queued (including
    // during the batching window above) is a guaranteed miss, so it is
    // failed typed instead of occupying a GPU slot.
    if (params_.shed_will_miss) {
      shed_expired_jobs();
      if (queue_.empty()) continue;
    }

    std::vector<QueuedJob> batch;
    batch.push_back(queue_.pop_next());
    if (params_.max_batch > 1)
      queue_.take_matching(batch.front().profile, batch.front().p,
                           params_.max_batch - 1, &batch,
                           params_.shed_will_miss ? sim_->now()
                                                  : kNeverExpired);
    co_await execute_batch(std::move(batch));
  }
}

sim::Task EdgeServerFrontend::execute_batch(std::vector<QueuedJob> batch) {
  const core::GraphCostProfile& profile = *batch.front().profile;
  const std::size_t p = batch.front().p;
  const TimeNs dispatch_time = sim_->now();
  // Crash visibility: crash() fails this batch through inflight_ and bumps
  // epoch_; after every suspension we re-check the epoch and abandon the
  // dispatch — the jobs were already answered with kServerDown, and the
  // (wiped, possibly re-warming) session state must not be touched.
  const std::uint64_t epoch = epoch_;
  inflight_ = &batch;

  for (const QueuedJob& job : batch)
    job.reply->queue_wait = to_seconds(dispatch_time - job.enqueued);

  if (telemetry_ != nullptr) {
    for (const QueuedJob& job : batch)
      queue_wait_ms_->record(to_millis(dispatch_time - job.enqueued));
    batch_occupancy_->record(static_cast<double>(batch.size()));
    if (auto* tr = trace()) {
      for (const QueuedJob& job : batch)
        tr->async_end(track_, "queue-wait", job.seq, dispatch_time);
      observe_queue_depth();
    }
  }

  in_flight_sec_ = 0.0;
  for (const QueuedJob& job : batch)
    in_flight_sec_ = std::max(in_flight_sec_, job.predicted_sec);

  // Partition caches are per session; one runtime preparation covers the
  // whole batch (it shares (model, p)). Each job looks p up once; after the
  // preparation every member session caches p, which for a session that hit
  // only refreshes its recency.
  double overhead = 0.0;
  DurationNs prep_ns = 0;
  bool miss = false;
  for (const QueuedJob& job : batch)
    if (!sessions_[job.session].cache.find(p)) miss = true;
  if (miss) {
    const core::Preparation prep =
        core::preparation(profile, p, core::Side::kServer);
    overhead = prep.sec;
    prep_ns = seconds(overhead);
    const TimeNs prep_begin = sim_->now();
    co_await sim_->delay(prep_ns);
    if (epoch_ != epoch) co_return;
    if (auto* tr = trace())
      tr->span(track_, "partition-prepare", prep_begin, sim_->now(),
               obs::TraceArgs().arg("p", p).arg("nodes", prep.nodes));
    for (const QueuedJob& job : batch) sessions_[job.session].cache.insert(p);
  }
  for (const QueuedJob& job : batch) job.reply->overhead = overhead;

  // One GPU dispatch for the whole batch. An active straggle window
  // stretches every kernel (thermal throttling / a noisy neighbour on the
  // box, not GPU queue contention — so it is invisible to pending_kernels
  // and to the idle watcher, exactly the slow-server case timeouts exist
  // for).
  const double straggle =
      faults_ != nullptr ? faults_->straggle_factor(sim_->now()) : 1.0;
  auto kernels = core::suffix_kernels(*gpu_, profile, p, batch.size(),
                                      straggle, rng_);
  // Contention snapshot: other tenants' kernels already queued on the GPU.
  // Only uncontended measurements calibrate the idle baseline of k.
  const bool gpu_contended = scheduler_->pending_kernels() > 4;
  const TimeNs begin = sim_->now();
  co_await scheduler_->run_batch(ctx_, std::move(kernels), batch.size());
  if (epoch_ != epoch) co_return;
  const double exec = to_seconds(sim_->now() - begin);
  const TimeNs finished = sim_->now();

  ++counters_.dispatches;
  const double predicted = profile.suffix_g(p);
  std::size_t served_now = 0;
  for (const QueuedJob& job : batch) {
    job.reply->exec = exec;
    // Epoch fence: the session was fenced (rerouted or its migration
    // aborted) while this dispatch sat on the GPU — the completion comes
    // from a superseded placement and must not count as served or feed the
    // (reset) k window.
    if (job.epoch < sessions_[job.session].fence) {
      ++counters_.failed_jobs;
      ++counters_.fenced_jobs;
      job.reply->resolve(core::SuffixStatus::kFenced);
      continue;
    }
    ++served_now;
    // The session's k tracks queue wait plus execution: at the frontend,
    // load manifests as queueing, and k is the signal that carries it back
    // into the client's partition decision. The preparation delay is left
    // out (the reply already charges it as overhead); subtracting it in ns
    // keeps the sample bit-exact.
    const double service = to_seconds(finished - job.enqueued - prep_ns);
    // Waiting longer than the batching window means the queue was the
    // bottleneck, not the coalescing delay.
    const bool contended =
        gpu_contended ||
        dispatch_time - job.enqueued > params_.batch_window;
    // The returned error scores the forecast this job's admission would
    // have read.
    if (predicted > 0.0)
      note_forecast_error(sessions_[job.session].k.record(
          service, predicted, contended, finished));
    job.reply->resolve(core::SuffixStatus::kServed);
  }
  counters_.served += served_now;
  if (batch.size() > 1) {
    ++counters_.batched_dispatches;
    counters_.batched_jobs += served_now;
  }
  if (auto* tr = trace())
    tr->span(track_, "suffix-exec", begin, finished,
             obs::TraceArgs()
                 .arg("batch", batch.size())
                 .arg("p", p)
                 .arg("exec_ms", exec * 1e3));
  in_flight_sec_ = 0.0;
  inflight_ = nullptr;
}

void EdgeServerFrontend::shed_expired_jobs() {
  const TimeNs now = sim_->now();
  const std::vector<QueuedJob> expired = queue_.take_expired(now);
  if (expired.empty()) return;
  for (const QueuedJob& job : expired) {
    ++counters_.failed_jobs;
    ++counters_.deadline_shed;
    job.reply->resolve(core::SuffixStatus::kDeadlineShed);
  }
  if (auto* tr = trace()) {
    for (const QueuedJob& job : expired)
      tr->async_end(track_, "queue-wait", job.seq, now);
    tr->instant(track_, "deadline-shed", now,
                obs::TraceArgs().arg("jobs", expired.size()));
    observe_queue_depth();
  }
}

void EdgeServerFrontend::attach_fault_plan(const fault::FaultPlan* plan) {
  faults_ = plan;
  if (plan != nullptr && !plan->server_crashes().empty())
    sim_->spawn(crash_driver());
}

sim::Task EdgeServerFrontend::crash_driver() {
  // server_crashes() is ordered and non-overlapping (FaultPlan enforces
  // it), so a plain walk with absolute-time delays is exact.
  for (const fault::FaultWindow& w : faults_->server_crashes()) {
    if (w.begin > sim_->now()) co_await sim_->delay(w.begin - sim_->now());
    crash();
    if (w.end > sim_->now()) co_await sim_->delay(w.end - sim_->now());
    restart();
  }
}

void EdgeServerFrontend::crash() {
  if (down_) return;
  down_ = true;
  ++counters_.crashes;
  ++epoch_;  // orphans any execute_batch parked on a suspension point

  // Fail-stop: every queued and in-flight job terminates with server-down
  // right now — a crash never turns into a client-side hang. Queued
  // casualties still have an open "queue-wait" async interval; close it
  // here so the trace never leaks unmatched begins (in-flight jobs closed
  // theirs at dispatch).
  const std::size_t queued_casualties = queue_.size();
  std::vector<QueuedJob> casualties = queue_.drain();
  if (inflight_ != nullptr) {
    for (const QueuedJob& job : *inflight_) casualties.push_back(job);
    inflight_ = nullptr;
  }
  for (const QueuedJob& job : casualties) {
    ++counters_.failed_jobs;
    job.reply->resolve(core::SuffixStatus::kServerDown);
  }
  if (auto* tr = trace()) {
    for (std::size_t i = 0; i < queued_casualties; ++i)
      tr->async_end(track_, "queue-wait", casualties[i].seq, sim_->now());
    tr->instant(track_, "crash", sim_->now(),
                obs::TraceArgs().arg("failed_jobs", casualties.size()));
    observe_queue_depth();
  }

  // Volatile state dies with the process: partition caches (entries AND
  // hit/miss statistics — a re-warmed cache must not blend pre-crash
  // traffic into its hit_rate), k windows and the in-flight estimate.
  // Sessions survive (they are the registration, not the state) and
  // re-warm through the ordinary profiler handshake after restart().
  for (Session& session : sessions_) wipe(session);
  in_flight_sec_ = 0.0;
}

void EdgeServerFrontend::wipe(Session& session) {
  session.k.reset();
  session.cache.clear();
}

void EdgeServerFrontend::restart() {
  if (!down_) return;
  down_ = false;
  if (auto* tr = trace()) tr->instant(track_, "restart", sim_->now());
  // Nudge the dispatcher in case anything races in right at restart.
  work_arrived_.trigger();
}

void EdgeServerFrontend::start_gpu_watcher(DurationNs period) {
  LP_CHECK(period > 0);
  sim_->spawn(gpu_watcher(period, sim_->now(), scheduler_->busy_ns()));
}

sim::Task EdgeServerFrontend::gpu_watcher(DurationNs period, TimeNs since,
                                          DurationNs busy_at_since) {
  for (;;) {
    co_await sim_->delay(period);
    const double util = scheduler_->utilization_since(since, busy_at_since);
    since = sim_->now();
    busy_at_since = scheduler_->busy_ns();
    if (util < kIdleUtilization)
      for (Session& session : sessions_) session.k.reset_idle(sim_->now());
  }
}

}  // namespace lp::serve
