#include "check/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "check/generators.h"
#include "check/invariants.h"
#include "check/model.h"
#include "cluster/fleet.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/algorithm.h"
#include "core/dads.h"
#include "predict/load_predictor.h"
#include "serve/fleet.h"
#include "serve/queue.h"

namespace lp::check {

namespace {

/// Near-equality for latencies computed by differently-ordered summations.
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const char* case_kind_name(CaseKind kind) {
  switch (kind) {
    case CaseKind::kDecision:
      return "decision";
    case CaseKind::kCache:
      return "cache";
    case CaseKind::kQueue:
      return "queue";
    case CaseKind::kFleet:
      return "fleet";
    case CaseKind::kCluster:
      return "cluster";
    case CaseKind::kPredict:
      return "predict";
  }
  return "?";
}

void decision_case(std::uint64_t seed, int level) {
  Rng rng(seed ^ 0xDEC1510Aull);
  GraphGenOptions opts;
  opts.chain_only = rng.bernoulli(0.3);
  opts = opts.shrunk(level);
  const graph::Graph g = random_graph(rng(), opts);

  // Random but sane predictor scales: the device is orders of magnitude
  // slower than the edge GPU, like the trained bundles.
  const core::PredictorBundle bundle =
      synthetic_bundle(rng.uniform(1e-10, 1e-9), rng.uniform(1e-13, 1e-11));
  const core::GraphCostProfile profile(g, bundle);
  const std::size_t n = profile.n();

  const int trials = level >= 2 ? 2 : 4;
  for (int t = 0; t < trials; ++t) {
    const double k = rng.bernoulli(0.2) ? 1.0 : rng.uniform(1.0, 16.0);
    const double bw = mbps(rng.uniform(0.25, 256.0));

    const core::Decision fast = core::decide(profile, k, bw);
    const core::Decision brute = core::decide_brute_force(profile, k, bw);
    LP_CHECK_MSG(near(fast.predicted_latency, brute.predicted_latency),
                 "decide latency " + std::to_string(fast.predicted_latency) +
                     " != brute-force " +
                     std::to_string(brute.predicted_latency));
    // p must match; the only tolerated divergence is an exact near-tie
    // (both points equally optimal up to summation rounding).
    if (fast.p != brute.p)
      LP_CHECK_MSG(near(profile.predicted_latency(fast.p, k, bw),
                        profile.predicted_latency(brute.p, k, bw)),
                   "decide picked p=" + std::to_string(fast.p) +
                       ", brute force p=" + std::to_string(brute.p) +
                       " and they are not tied");

    // The pseudocode-verbatim form over raw arrays (g pre-scaled by k).
    std::vector<double> f(n + 1), gk(n + 1);
    std::vector<std::int64_t> s(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      f[i] = profile.f(i);
      gk[i] = k * profile.g_base(i);
      s[i] = profile.s(i);
    }
    const core::Decision verbatim = core::partition_decision(f, gk, s, bw,
                                                             /*download=*/0.0);
    LP_CHECK_MSG(near(verbatim.predicted_latency, fast.predicted_latency),
                 "partition_decision latency diverges from decide");
    if (verbatim.p != fast.p)
      LP_CHECK_MSG(near(profile.predicted_latency(verbatim.p, k, bw),
                        profile.predicted_latency(fast.p, k, bw)),
                   "partition_decision picked p=" +
                       std::to_string(verbatim.p) + ", decide p=" +
                       std::to_string(fast.p) + " and they are not tied");

    // DADS searches a superset of cuts: never worse, and on single-path
    // chains every monotone cut is a prefix cut, so exactly equal.
    const core::DadsResult cut = core::dads_min_cut(profile, k, bw);
    LP_CHECK_MSG(cut.latency_sec <= fast.predicted_latency + 1e-9,
                 "min cut worse than the topological search");
    if (opts.chain_only)
      LP_CHECK_MSG(near(cut.latency_sec, fast.predicted_latency),
                   "min cut beat Algorithm 1 on a single-path chain");
  }
}

void cache_case(std::uint64_t seed, int level) {
  Rng rng(seed ^ 0xCAC4Eull);
  const std::size_t capacity =
      static_cast<std::size_t>(rng.uniform_int(1, 6));
  partition::PartitionCache cache(capacity);
  ReferenceLru ref(capacity);

  // Keys drawn from a universe slightly bigger than the capacity so both
  // hits and evictions happen often.
  const std::size_t universe =
      capacity + static_cast<std::size_t>(rng.uniform_int(1, 4));
  const int ops = level >= 2 ? 12 : (level == 1 ? 30 : 80);
  for (int i = 0; i < ops; ++i) {
    const std::size_t p = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(universe)));
    switch (rng.uniform_int(0, 9)) {
      case 7:
      case 8: {
        partition::PartitionPlan plan;
        plan.p = p;
        cache.insert(
            std::make_shared<const partition::PartitionPlan>(std::move(plan)));
        ref.insert(p);
        break;
      }
      case 9: {
        if (rng.bernoulli(0.5)) {
          cache.clear();
          ref.clear();
        } else {
          cache.reset_stats();
          ref.reset_stats();
        }
        break;
      }
      default: {  // lookup, the common op
        const partition::PartitionPlan* got = cache.find(p);
        const bool expected = ref.find(p);
        LP_CHECK_MSG((got != nullptr) == expected,
                     "hit/miss diverges from the reference LRU");
        if (got != nullptr) LP_CHECK(got->p == p);
        break;
      }
    }
    audit(cache);
    LP_CHECK_MSG(cache.lru_keys() == ref.keys(),
                 "recency order diverges from the reference LRU");
    LP_CHECK_MSG(cache.hits() == ref.hits && cache.misses() == ref.misses &&
                     cache.evictions() == ref.evictions,
                 "hit/miss/eviction counters diverge from the reference");
  }
}

namespace {

/// Replicates RequestQueue's dispatch order for the reference scan.
bool ref_before(serve::QueuePolicy policy, const serve::QueuedJob& a,
                const serve::QueuedJob& b) {
  switch (policy) {
    case serve::QueuePolicy::kFifo:
      break;
    case serve::QueuePolicy::kEdf:
      // core::kNoDeadline is TimeNs max, so deadline-free jobs sort last.
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      break;
    case serve::QueuePolicy::kSpjf:
      if (a.predicted_sec != b.predicted_sec)
        return a.predicted_sec < b.predicted_sec;
      break;
    case serve::QueuePolicy::kLeastSlack: {
      const bool has_a = a.deadline != core::kNoDeadline;
      const bool has_b = b.deadline != core::kNoDeadline;
      if (has_a != has_b) return has_a;
      if (has_a) {
        const double key_a =
            static_cast<double>(a.deadline) - a.predicted_sec * 1e9;
        const double key_b =
            static_cast<double>(b.deadline) - b.predicted_sec * 1e9;
        if (key_a != key_b) return key_a < key_b;
      }
      break;
    }
  }
  return a.seq < b.seq;
}

/// Replicates the push-boundary prediction clamp for the mirror model.
double ref_sanitized(double predicted_sec) {
  if (!std::isfinite(predicted_sec) || predicted_sec < 0.0) return 0.0;
  return predicted_sec;
}

/// Two distinct (graph, profile) fixtures so take_matching has real model
/// identities to discriminate on. Built once; deterministic.
struct QueueFixtures {
  core::PredictorBundle bundle = synthetic_bundle();
  graph::Graph g0 = random_graph(11, GraphGenOptions{1, 2, 4, 2, false});
  graph::Graph g1 = random_graph(12, GraphGenOptions{1, 2, 4, 2, false});
  core::GraphCostProfile p0{g0, bundle};
  core::GraphCostProfile p1{g1, bundle};
};

const QueueFixtures& queue_fixtures() {
  static const QueueFixtures fixtures;
  return fixtures;
}

}  // namespace

void queue_case(std::uint64_t seed, int level) {
  Rng rng(seed ^ 0x0E0E0ull);
  const auto policy = static_cast<serve::QueuePolicy>(rng.uniform_int(0, 3));
  const std::size_t capacity =
      static_cast<std::size_t>(rng.uniform_int(1, 8));
  serve::RequestQueue queue(policy, capacity);
  std::vector<serve::QueuedJob> mirror;  // arrival order, like jobs_
  const QueueFixtures& fx = queue_fixtures();
  std::uint64_t next_seq = 0;

  auto mirror_erase_seq = [&](std::uint64_t seq) {
    for (std::size_t i = 0; i < mirror.size(); ++i)
      if (mirror[i].seq == seq) {
        mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    LP_CHECK_MSG(false, "queue returned a job the mirror never admitted");
  };
  auto random_job = [&](int i) {
    serve::QueuedJob job;
    job.seq = next_seq++;
    job.session = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
    job.profile = rng.bernoulli(0.5) ? &fx.p0 : &fx.p1;
    job.p = static_cast<std::size_t>(rng.uniform_int(0, 2));
    // Half the jobs carry a deadline; occasionally the legitimate absolute
    // deadline 0 (a request stamped at sim time 0), which the old
    // 0-means-none sentinel conflated with "no deadline".
    if (rng.bernoulli(0.5))
      job.deadline = rng.bernoulli(0.1)
                         ? 0
                         : milliseconds(rng.uniform_int(1, 500));
    job.enqueued = milliseconds(i);
    // Adversarial magnitudes: exact powers of two spanning ~28 decades
    // (plus occasional zeros) — the inputs that made the old clamped
    // subtraction scheme drift — and, at the push boundary, hostile
    // non-finite / negative predictions that must be clamped to zero
    // before they can break the SPJF/least-slack ordering.
    if (rng.bernoulli(0.15)) {
      const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                -1.5};
      job.predicted_sec =
          hostile[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    } else {
      job.predicted_sec =
          rng.bernoulli(0.1)
              ? 0.0
              : std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.uniform_int(-40, 53)));
    }
    return job;
  };
  // Policy-order reference for take_matching: repeatedly pick the
  // ref_before-best matching, non-expired job, exactly as the batch fills.
  auto expected_matching = [&](const core::GraphCostProfile* profile,
                               std::size_t p, std::size_t limit,
                               TimeNs cutoff) {
    std::vector<serve::QueuedJob> pool = mirror;
    std::vector<std::uint64_t> expected;
    while (expected.size() < limit) {
      std::size_t best = pool.size();
      for (std::size_t j = 0; j < pool.size(); ++j) {
        if (pool[j].profile != profile || pool[j].p != p) continue;
        if (pool[j].deadline != core::kNoDeadline &&
            pool[j].deadline <= cutoff)
          continue;
        if (best == pool.size() || ref_before(policy, pool[j], pool[best]))
          best = j;
      }
      if (best == pool.size()) break;
      expected.push_back(pool[best].seq);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
    }
    return expected;
  };

  const int ops = level >= 2 ? 15 : (level == 1 ? 40 : 100);
  for (int i = 0; i < ops; ++i) {
    switch (rng.uniform_int(0, 9)) {
      case 4: {  // push_migrated (bypasses the capacity bound)
        serve::QueuedJob job = random_job(i);
        queue.push_migrated(job);
        job.predicted_sec = ref_sanitized(job.predicted_sec);
        job.migrated = true;
        mirror.push_back(job);
        break;
      }
      case 5: {  // take_session / take_expired (both arrival-order sweeps)
        if (rng.bernoulli(0.5)) {
          const auto session =
              static_cast<std::uint64_t>(rng.uniform_int(0, 3));
          const std::vector<serve::QueuedJob> taken =
              queue.take_session(session);
          std::vector<std::uint64_t> expected;
          for (const serve::QueuedJob& job : mirror)
            if (job.session == session) expected.push_back(job.seq);
          LP_CHECK_MSG(taken.size() == expected.size(),
                       "take_session count diverges from the reference");
          for (std::size_t j = 0; j < taken.size(); ++j) {
            LP_CHECK_MSG(taken[j].seq == expected[j],
                         "take_session must sweep in arrival order");
            mirror_erase_seq(taken[j].seq);
          }
        } else {
          const TimeNs now = milliseconds(rng.uniform_int(0, 500));
          const std::vector<serve::QueuedJob> expired =
              queue.take_expired(now);
          std::vector<std::uint64_t> expected;
          for (const serve::QueuedJob& job : mirror)
            if (job.deadline != core::kNoDeadline && job.deadline <= now)
              expected.push_back(job.seq);
          LP_CHECK_MSG(expired.size() == expected.size(),
                       "take_expired count diverges from the reference");
          for (std::size_t j = 0; j < expired.size(); ++j) {
            LP_CHECK_MSG(expired[j].seq == expected[j],
                         "take_expired must sweep in arrival order");
            mirror_erase_seq(expired[j].seq);
          }
        }
        break;
      }
      case 6:
      case 7: {  // pop_next
        if (queue.empty()) break;
        const serve::QueuedJob popped = queue.pop_next();
        std::size_t best = 0;
        for (std::size_t j = 1; j < mirror.size(); ++j)
          if (ref_before(policy, mirror[j], mirror[best])) best = j;
        LP_CHECK_MSG(popped.seq == mirror[best].seq,
                     "pop_next order diverges from the reference scan");
        mirror_erase_seq(popped.seq);
        break;
      }
      case 8: {  // take_matching (policy order, optional expiry cutoff)
        const core::GraphCostProfile* profile =
            rng.bernoulli(0.5) ? &fx.p0 : &fx.p1;
        const std::size_t p =
            static_cast<std::size_t>(rng.uniform_int(0, 2));
        const std::size_t limit =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        const TimeNs cutoff = rng.bernoulli(0.3)
                                  ? milliseconds(rng.uniform_int(0, 500))
                                  : serve::kNeverExpired;
        std::vector<serve::QueuedJob> out;
        queue.take_matching(profile, p, limit, &out, cutoff);
        const std::vector<std::uint64_t> expected =
            expected_matching(profile, p, limit, cutoff);
        LP_CHECK_MSG(out.size() == expected.size(),
                     "take_matching count diverges from the reference");
        for (std::size_t j = 0; j < out.size(); ++j) {
          LP_CHECK_MSG(out[j].seq == expected[j],
                       "take_matching order diverges from the reference");
          mirror_erase_seq(out[j].seq);
        }
        break;
      }
      case 9: {  // drain (rare)
        const std::vector<serve::QueuedJob> drained = queue.drain();
        LP_CHECK(drained.size() == mirror.size());
        for (std::size_t j = 0; j < drained.size(); ++j)
          LP_CHECK_MSG(drained[j].seq == mirror[j].seq,
                       "drain must preserve arrival order");
        mirror.clear();
        break;
      }
      default: {  // push, the common op
        serve::QueuedJob job = random_job(i);
        const bool pushed = queue.push(job);
        LP_CHECK_MSG(pushed == (mirror.size() < capacity),
                     "push accepted/rejected against the capacity bound");
        if (pushed) {
          job.predicted_sec = ref_sanitized(job.predicted_sec);
          mirror.push_back(job);
        }
        break;
      }
    }
    audit(queue);
    LP_CHECK(queue.size() == mirror.size());
    std::size_t migrated = 0;
    for (const serve::QueuedJob& job : mirror)
      if (job.migrated) ++migrated;
    LP_CHECK_MSG(queue.migrated_in_queue() == migrated,
                 "migrated-in-queue count diverges from the reference");
    double backlog = 0.0;
    for (const serve::QueuedJob& job : mirror) backlog += job.predicted_sec;
    LP_CHECK_MSG(queue.predicted_backlog_sec() == backlog,
                 "backlog diverges from the reference left-to-right sum");
  }
}

void fleet_case(std::uint64_t seed, int level) {
  serve::FleetConfig config = random_fleet_config(seed, level);
  FleetAuditor auditor;
  config.on_audit = [&auditor](const serve::EdgeServerFrontend& frontend,
                               TimeNs now) { auditor(frontend, now); };
  config.audit_period = milliseconds(100);

  static const core::PredictorBundle bundle = synthetic_bundle();
  const serve::FleetResult result = serve::run_fleet(config, bundle);

  LP_CHECK_MSG(auditor.audits() > 0, "fleet audit hook never fired");
  LP_CHECK_MSG(result.frontend.submitted ==
                   result.frontend.admitted + result.frontend.shed + result.frontend.refused,
               "end-of-run conservation: submitted != admitted+shed+refused");
  LP_CHECK(result.frontend.served + result.frontend.failed_jobs <= result.frontend.admitted);
  LP_CHECK(result.frontend.batched_jobs <= result.frontend.served);
}

void cluster_case(std::uint64_t seed, int level) {
  cluster::ClusterConfig config = random_cluster_config(seed, level);
  ClusterAuditor auditor;
  config.on_audit = [&auditor](const cluster::ClusterRouter& router,
                               TimeNs now) { auditor(router, now); };
  // Audit at the heartbeat cadence: every control-plane decision round is
  // immediately followed by a conservation + ledger check.
  config.audit_period = config.router.heartbeat_period;

  static const core::PredictorBundle bundle = synthetic_bundle();
  const cluster::ClusterResult result = cluster::run_cluster(config, bundle);

  LP_CHECK_MSG(auditor.audits() > 0, "cluster audit hook never fired");
  // Robust configuration: fencing + return_to_source means no chaos
  // schedule may strand an admitted job or let a zombie copy through.
  LP_CHECK_MSG(result.stranded_jobs == 0,
               "robust cluster stranded jobs under chaos");
  LP_CHECK_MSG(result.zombie_imports == 0,
               "robust cluster absorbed a zombie transfer copy");
}

void predict_case(std::uint64_t seed, int level) {
  const int steps = level >= 2 ? 8 : (level == 1 ? 24 : 64);
  predict::PredictorParams params;
  for (const std::string& kind : predict::registered_predictors()) {
    params.kind = kind;
    predict::LoadPredictor predictor(params);
    std::optional<predict::LoadPredictor> clone;

    // Every predictor sees the same regime-switching walk (re-seeded per
    // kind): load-like values, occasionally jumping regimes, occasionally
    // resetting — the shapes the k series actually produces.
    Rng walk(seed ^ 0x9ED1C7ull);
    double value = walk.uniform(1.0, 8.0);
    double drift = 0.0;
    TimeNs now = 0;

    for (int i = 0; i < steps; ++i) {
      now += milliseconds(walk.uniform_int(1, 250));
      if (walk.bernoulli(0.15)) drift = walk.uniform(-0.5, 0.5);
      if (walk.bernoulli(0.05)) value = walk.uniform(1.0, 8.0);
      value = std::clamp(value + drift + 0.2 * walk.normal(), 1.0, 1e4);

      const double err = predictor.observe(now, value);
      if (i == 0)
        LP_CHECK_MSG(std::isnan(err), "first observation must be unscored");
      else
        LP_CHECK_MSG(std::isfinite(err),
                     "forecast error must be finite after the first sample");
      if (clone) clone->observe(now, value);

      const DurationNs horizons[] = {0, milliseconds(50), seconds(1),
                                     seconds(30)};
      for (DurationNs h : horizons) {
        const double f = predictor.forecast(h);
        LP_CHECK_MSG(std::isfinite(f), "forecast must be finite");
        LP_CHECK_MSG(std::abs(f) <= predict::kMaxAbsForecast,
                     "forecast escaped the clamp");
        // Reactive equivalence: the default predictor forecasts exactly
        // its last observation at every horizon — this is the invariant
        // the stack-wide bit-identity of legacy runs rests on.
        if (kind == "last-value")
          LP_CHECK_MSG(f == value,
                       "last-value forecast diverged from the observation");
        if (clone)
          LP_CHECK_MSG(f == clone->forecast(h),
                       "migrated copy forecasts different bits");
      }
      LP_CHECK(predictor.confidence() >= 0.0 &&
               predictor.confidence() <= 1.0);
      if (predictor.scored() > 0)
        LP_CHECK(std::isfinite(predictor.mae()) &&
                 std::isfinite(predictor.bias()));
      if (clone)
        LP_CHECK_MSG(*clone == predictor,
                     "migrated copy diverged from the original");

      if (i == steps / 2) {
        // Mid-stream migration: the copy tracks the original exactly from
        // here on.
        clone = predictor;
      }
    }
  }
}

void run_case(CaseKind kind, std::uint64_t seed, int level) {
  switch (kind) {
    case CaseKind::kDecision:
      decision_case(seed, level);
      return;
    case CaseKind::kCache:
      cache_case(seed, level);
      return;
    case CaseKind::kQueue:
      queue_case(seed, level);
      return;
    case CaseKind::kFleet:
      fleet_case(seed, level);
      return;
    case CaseKind::kCluster:
      cluster_case(seed, level);
      return;
    case CaseKind::kPredict:
      predict_case(seed, level);
      return;
  }
  LP_CHECK_MSG(false, "unknown case kind");
}

std::uint64_t run_diff(CaseKind kind, std::uint64_t seed,
                       std::uint64_t cases, int level) {
  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    try {
      run_case(kind, cs, level);
    } catch (const ContractError& e) {
      throw ContractError(std::string(case_kind_name(kind)) + " case " +
                          std::to_string(i) + " (case seed " + hex(cs) +
                          "): " + e.what());
    }
  }
  return cases;
}

}  // namespace lp::check
