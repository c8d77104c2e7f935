// Bounded request queue of the serving frontend with pluggable ordering.
//
// Jobs are suffix-execution requests waiting for the GPU dispatcher. The
// queue is bounded (push fails when full — the caller sheds) and orders
// dispatch by one of four policies:
//   * kFifo       — arrival order (the paper's implicit single-queue
//                   service);
//   * kEdf        — earliest deadline first (core::kNoDeadline sorts last);
//   * kSpjf       — shortest predicted job first, using the k-adjusted
//                   PredictorBundle estimate carried by each request;
//   * kLeastSlack — least slack first (ATLAS-style): slack = deadline − now
//                   − predicted service. `now` is common to any two jobs
//                   compared at the same instant, so the order reduces to
//                   deadline − predicted with no clock needed; deadline-free
//                   jobs sort last.
// Ties always break by arrival sequence, keeping dispatch deterministic.
// Predictions are sanitized at the push boundary: a NaN would break the
// strict weak ordering of SPJF/least-slack and poison the backlog sum
// forever, so non-finite or negative predicted_sec is clamped to 0.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/offload_runtime.h"
#include "core/predictor.h"
#include "common/units.h"

namespace lp::serve {

enum class QueuePolicy { kFifo, kEdf, kSpjf, kLeastSlack };

std::string queue_policy_name(QueuePolicy policy);

/// take_matching cutoff that classifies no job as expired: below every
/// representable deadline (and kNoDeadline jobs are exempt regardless).
inline constexpr TimeNs kNeverExpired = std::numeric_limits<TimeNs>::min();

/// A suffix job parked in the frontend queue: the admitted request's
/// routing and ordering keys plus the reply it will resolve.
struct QueuedJob {
  std::uint64_t seq = 0;      ///< arrival sequence (FIFO order, tie-break)
  std::uint64_t session = 0;  ///< owning session
  const core::GraphCostProfile* profile = nullptr;  ///< the model served
  std::size_t p = 0;                                ///< partition point
  TimeNs deadline = core::kNoDeadline;              ///< absolute deadline
  TimeNs enqueued = 0;
  double predicted_sec = 0.0;  ///< k-adjusted suffix prediction (SPJF key)
  /// The client's reply, shared with it and its deadline watcher: the job
  /// resolves it exactly once (served, server-down, fenced, deadline-shed),
  /// and it stays alive even if the client abandons the attempt.
  std::shared_ptr<core::SuffixReply> reply;
  /// Fencing epoch stamped at admission (the session's fence at that
  /// moment) and re-stamped on migration import. A job whose epoch is
  /// older than its session's current fence is a zombie — its completion
  /// is rejected instead of being served from a superseded placement.
  std::uint64_t epoch = 0;
  /// True for a job that arrived via session migration (push_migrated):
  /// it was admitted once on its origin server, so it bypasses the
  /// capacity bound here rather than re-contending for admission.
  bool migrated = false;
};

class RequestQueue {
 public:
  RequestQueue(QueuePolicy policy, std::size_t capacity);

  QueuePolicy policy() const { return policy_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  bool full() const { return jobs_.size() >= capacity_; }

  /// Enqueues the job; false (and the job is dropped) when full.
  bool push(QueuedJob job);

  /// Enqueues a job arriving via session migration, bypassing the capacity
  /// bound (it was already admitted on its origin server and must not be
  /// dropped). Marks the job migrated; the queue may transiently exceed
  /// capacity by the number of such jobs still queued.
  void push_migrated(QueuedJob job);

  /// Removes every queued job of `session` in arrival order (the migration
  /// export path). The backlog is recomputed from the survivors.
  std::vector<QueuedJob> take_session(std::uint64_t session);

  /// Queued jobs that entered through push_migrated (audits: the queue may
  /// exceed capacity by exactly this many).
  std::size_t migrated_in_queue() const;

  /// Removes and returns the next job under the queue policy. Requires
  /// !empty().
  QueuedJob pop_next();

  /// Removes up to `limit` jobs batch-compatible with (profile, p) —
  /// identical model and partition point — appending them to *out in
  /// queue-policy order (suffix batching): under EDF/least-slack the batch
  /// fills earliest-deadline/least-slack first, not arrival order, so a
  /// late-deadline co-partition job cannot ride ahead of an earlier one.
  /// Jobs whose deadline is at or before `expired_cutoff` are never batched
  /// (they belong to the will-miss shedder); the default cutoff matches
  /// nothing.
  void take_matching(const core::GraphCostProfile* profile, std::size_t p,
                     std::size_t limit, std::vector<QueuedJob>* out,
                     TimeNs expired_cutoff = kNeverExpired);

  /// Removes, in arrival order, every queued job whose deadline is at or
  /// before `now` — jobs that will provably miss even with instant,
  /// zero-length service. The dispatcher's will-miss shedder fails them
  /// with a typed SuffixStatus instead of burning a GPU slot.
  std::vector<QueuedJob> take_expired(TimeNs now);

  /// Removes and returns every queued job in arrival order (crash path:
  /// the caller fails them all). Leaves the queue empty.
  std::vector<QueuedJob> drain();

  /// Sum of the predicted execution times of everything queued — the
  /// admission controller's estimate of the backlog ahead of a new arrival.
  /// Exact: maintained as the left-to-right sum over the queued jobs (a
  /// removal recomputes rather than subtracting), so it always equals
  /// what summing jobs() directly yields — check::audit asserts this.
  double predicted_backlog_sec() const { return backlog_sec_; }

  /// Queued jobs in arrival order (audits and tests; do not resolve their
  /// replies).
  const std::vector<QueuedJob>& jobs() const { return jobs_; }

 private:
  bool before(const QueuedJob& a, const QueuedJob& b) const;
  double recompute_backlog() const;
  /// Removes every job `match` accepts, in arrival order, and recomputes
  /// the backlog from the survivors.
  template <typename Match>
  std::vector<QueuedJob> take_if(Match match);

  QueuePolicy policy_;
  std::size_t capacity_;
  std::vector<QueuedJob> jobs_;
  double backlog_sec_ = 0.0;
};

}  // namespace lp::serve
