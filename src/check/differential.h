// Differential-testing harness for the decision and serving planes.
//
// Six case families, each reproducible from a single case seed and a
// shrink level (level 0 = full-size, higher = smaller instance):
//   * decision — random graph / predictors / k / bandwidth through
//     core::decide vs decide_brute_force vs the verbatim pseudocode vs the
//     DADS min cut (equality on single-path chains, <= on DAGs);
//   * cache    — random op sequences through partition::PartitionCache vs
//     the obviously-correct ReferenceLru, counters and recency compared
//     after every op;
//   * queue    — random push/pop/take/drain sequences with adversarial
//     prediction magnitudes through serve::RequestQueue vs a linear-scan
//     reference of the same policy order, backlog audited exactly;
//   * fleet    — a randomized fleet (tenants, policies, faults, timeouts)
//     simulated with the invariant auditor armed on every audit period;
//   * cluster  — a randomized multi-server cluster under control-plane
//     chaos (lossy heartbeats, non-oracle failure detection, a lossy
//     migration interconnect with timeout/retry/abort, crash windows),
//     with the cluster conservation + ledger auditor armed every
//     heartbeat period — no chaos schedule may lose an admitted job;
//   * predict  — random regime-switching load traces through every
//     registered load predictor: forecasts stay finite and bounded at all
//     horizons, error statistics stay finite, a copy taken mid-stream (as
//     a live migration takes one) forecasts the same bits ever after and
//     stays equal to the original, and the last-value default always
//     forecasts exactly its last observation (the reactive-equivalence
//     invariant).
// A case throws lp::ContractError on divergence; run_diff() adds the case
// index/seed context so any failure is replayable via tools/check_fuzz.
#pragma once

#include <cstdint>
#include <string>

namespace lp::check {

enum class CaseKind { kDecision, kCache, kQueue, kFleet, kCluster, kPredict };

const char* case_kind_name(CaseKind kind);

/// Runs one case of the given family. Deterministic given (seed, level);
/// throws lp::ContractError on any divergence or invariant violation.
void run_case(CaseKind kind, std::uint64_t seed, int level = 0);

// The individual families (run_case dispatches to these).
void decision_case(std::uint64_t seed, int level = 0);
void cache_case(std::uint64_t seed, int level = 0);
void queue_case(std::uint64_t seed, int level = 0);
void fleet_case(std::uint64_t seed, int level = 0);
void cluster_case(std::uint64_t seed, int level = 0);
void predict_case(std::uint64_t seed, int level = 0);

/// Runs `cases` cases of one family, deriving case seeds with
/// case_seed(seed, i). On failure rethrows lp::ContractError prefixed with
/// the family, index and case seed (hex) so the exact case can be replayed
/// with tools/check_fuzz --kind <family> --replay <case-seed>.
/// Returns the number of cases run.
std::uint64_t run_diff(CaseKind kind, std::uint64_t seed,
                       std::uint64_t cases, int level = 0);

}  // namespace lp::check
