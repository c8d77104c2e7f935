#include "serve/queue.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace lp::serve {

namespace {

// A non-finite prediction breaks the strict weak ordering of before()
// (NaN compares false both ways, so "before" stops being asymmetric) and
// permanently poisons the backlog sum the admission controller reads; a
// negative one credits the backlog. Neither value ever enters the queue.
void sanitize_prediction(QueuedJob* job) {
  if (!std::isfinite(job->predicted_sec) || job->predicted_sec < 0.0)
    job->predicted_sec = 0.0;
}

bool expired_before(const QueuedJob& job, TimeNs cutoff) {
  return job.deadline != core::kNoDeadline && job.deadline <= cutoff;
}

}  // namespace

RequestQueue::RequestQueue(QueuePolicy policy, std::size_t capacity)
    : policy_(policy), capacity_(capacity) {
  LP_CHECK(capacity > 0);
}

bool RequestQueue::push(QueuedJob job) {
  if (full()) return false;
  sanitize_prediction(&job);
  backlog_sec_ += job.predicted_sec;
  jobs_.push_back(job);
  return true;
}

void RequestQueue::push_migrated(QueuedJob job) {
  job.migrated = true;
  sanitize_prediction(&job);
  backlog_sec_ += job.predicted_sec;
  jobs_.push_back(job);
}

template <typename Match>
std::vector<QueuedJob> RequestQueue::take_if(Match match) {
  // One stable pass that neither allocates nor moves anything when no job
  // matches (the dispatcher's will-miss check, every dispatch). Past the
  // first match, `kept` trails `it`, so no job is moved onto itself.
  std::vector<QueuedJob> out;
  auto kept = std::find_if(jobs_.begin(), jobs_.end(), match);
  if (kept == jobs_.end()) return out;
  for (auto it = kept; it != jobs_.end(); ++it) {
    if (match(*it)) {
      out.push_back(std::move(*it));
    } else {
      *kept++ = std::move(*it);
    }
  }
  jobs_.erase(kept, jobs_.end());
  backlog_sec_ = recompute_backlog();
  return out;
}

std::vector<QueuedJob> RequestQueue::take_session(std::uint64_t session) {
  return take_if(
      [session](const QueuedJob& job) { return job.session == session; });
}

std::size_t RequestQueue::migrated_in_queue() const {
  std::size_t count = 0;
  for (const QueuedJob& job : jobs_)
    if (job.migrated) ++count;
  return count;
}

bool RequestQueue::before(const QueuedJob& a, const QueuedJob& b) const {
  switch (policy_) {
    case QueuePolicy::kFifo:
      break;  // seq tie-break below is the whole order
    case QueuePolicy::kEdf:
      // kNoDeadline is TimeNs max, so deadline-free jobs sort last with no
      // special case.
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      break;
    case QueuePolicy::kSpjf:
      if (a.predicted_sec != b.predicted_sec)
        return a.predicted_sec < b.predicted_sec;
      break;
    case QueuePolicy::kLeastSlack: {
      // Slack = deadline − now − predicted. `now` cancels between any two
      // jobs compared at the same instant, so deadline − predicted orders
      // identically without a clock. Deadline-free jobs (infinite slack)
      // sort last. predicted_sec is finite and non-negative (sanitized at
      // push), so the keys are totally ordered.
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

// Exact backlog accounting: push extends the left-to-right sum (the same
// operation a full recompute would end with), and removals recompute it
// from the survivors instead of subtracting — floating-point subtraction
// drifts when jobs leave in a different order than they arrived (EDF/SPJF),
// and the old max(0, ...) clamp silently hid the sign errors.
double RequestQueue::recompute_backlog() const {
  double total = 0.0;
  for (const QueuedJob& job : jobs_) total += job.predicted_sec;
  return total;
}

QueuedJob RequestQueue::pop_next() {
  LP_CHECK(!jobs_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < jobs_.size(); ++i)
    if (before(jobs_[i], jobs_[best])) best = i;
  QueuedJob job = jobs_[best];
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(best));
  backlog_sec_ = recompute_backlog();
  return job;
}

void RequestQueue::take_matching(const core::GraphCostProfile* profile,
                                 std::size_t p, std::size_t limit,
                                 std::vector<QueuedJob>* out,
                                 TimeNs expired_cutoff) {
  LP_CHECK(out != nullptr);
  // Repeatedly extract the policy-best matching job, so the batch fills in
  // dispatch order (under FIFO this degenerates to arrival order, the old
  // behavior). Already-expired jobs are skipped: batching one would smuggle
  // a guaranteed miss past the will-miss shedder.
  std::size_t taken = 0;
  while (taken < limit) {
    std::size_t best = jobs_.size();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].profile != profile || jobs_[i].p != p) continue;
      if (expired_before(jobs_[i], expired_cutoff)) continue;
      if (best == jobs_.size() || before(jobs_[i], jobs_[best])) best = i;
    }
    if (best == jobs_.size()) break;
    out->push_back(jobs_[best]);
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(best));
    ++taken;
  }
  if (taken > 0) backlog_sec_ = recompute_backlog();
}

std::vector<QueuedJob> RequestQueue::take_expired(TimeNs now) {
  return take_if(
      [now](const QueuedJob& job) { return expired_before(job, now); });
}

std::vector<QueuedJob> RequestQueue::drain() {
  return take_if([](const QueuedJob&) { return true; });
}

}  // namespace lp::serve
