// Discrete-event simulator with a virtual nanosecond clock.
//
// All of LoADPart's runtime dynamics (GPU scheduling, network transfers,
// periodic profiler threads, the offloading client/server) run as coroutine
// processes over this engine. Everything is deterministic and single
// threaded; "threads" in the paper map to processes here.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/task.h"

namespace lp::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated time.
  TimeNs now() const { return now_; }

  /// Registers a detached root process; it starts when the clock next runs.
  /// An exception it throws escapes run().
  void spawn(Task task);

  /// Schedules a plain callback after `delay` (>= 0) as a one-shot root
  /// coroutine: it takes its place in the event order at the call, its
  /// captures die as soon as it has run (pending ones at teardown), and an
  /// exception it throws escapes run().
  void call_after(DurationNs delay, std::function<void()> fn);

  /// Awaitable that resumes the caller after `delay` (>= 0) of virtual time.
  /// When that resume would be the running loop's next event anyway (it
  /// ends within the current run call's bound and strictly before every
  /// queued event), the caller resumes in place: the clock advances and the
  /// resume counts as an executed event, but the queue is never touched.
  [[nodiscard]] auto delay(DurationNs d) {
    LP_CHECK(d >= 0);
    struct Awaiter {
      Simulator* sim;
      DurationNs d;
      bool await_ready() { return sim->resume_in_place(sim->now_ + d); }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_handle(sim->now_ + d, h);
      }
      void await_resume() const {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue drains. Returns the final time.
  TimeNs run();

  /// Runs all events with timestamp <= t, then sets now() = t.
  void run_until(TimeNs t);

  /// Convenience: run_until(now() + d).
  void run_for(DurationNs d) { run_until(now_ + d); }

  /// Total events executed so far (for tests and sanity checks), counting
  /// each delay that resumed in place as the event it stands for.
  std::uint64_t executed_events() const { return executed_; }

  /// True if no future work is scheduled.
  bool idle() const { return queue_.empty(); }

  // -- internal, used by awaitables in this module --
  void schedule_handle(TimeNs t, std::coroutine_handle<> h);

 private:
  // Trivially copyable, so the heap moves 24-byte PODs.
  struct Entry {
    TimeNs time;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::coroutine_handle<> handle;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void step(const Entry& e);

  // A resume at `t` pushed now would take the largest sequence number, and
  // nothing runs between that push and the loop's next pop. So the loop
  // pops it next exactly when `t` is within the running call's bound and
  // every queued entry is strictly later (an older entry wins a tie). Then
  // this does step()'s part, setting the clock and counting the event, and
  // the caller keeps running; no sequence number is taken.
  bool resume_in_place(TimeNs t) {
    if (t > bound_ || (!queue_.empty() && queue_.top().time <= t))
      return false;
    now_ = t;
    ++executed_;
    return true;
  }

  TimeNs now_ = 0;
  // The last time the running call may reach: t for run_until(t), the end
  // of time for run(). Each call sets it on entry; coroutines resume only
  // inside those calls.
  TimeNs bound_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::coroutine_handle<>> roots_;  // spawned and call_after
};

/// One-shot broadcast event. Waiters resume (at the trigger time) once
/// trigger() is called; waits after triggering complete immediately.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}

  void trigger();
  void reset() { triggered_ = false; }
  bool triggered() const { return triggered_; }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const { return ev->triggered_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counted resource with FIFO waiters (e.g. "the device CPU", "one
/// in-flight inference"). acquire() suspends until a unit is free;
/// release() hands the unit to the oldest waiter, if any.
class Resource {
 public:
  Resource(Simulator& sim, std::size_t capacity)
      : sim_(&sim), available_(capacity), capacity_(capacity) {
    LP_CHECK(capacity > 0);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return available_; }
  std::size_t waiters() const { return waiters_.size(); }

  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Resource* res;
      bool await_ready() {
        if (res->available_ == 0) return false;
        --res->available_;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        res->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  /// Returns a unit; the caller must hold one.
  void release() {
    if (!waiters_.empty()) {
      // The unit transfers directly to the oldest waiter.
      sim_->schedule_handle(sim_->now(), waiters_.front());
      waiters_.erase(waiters_.begin());
    } else {
      LP_CHECK_MSG(available_ < capacity_, "release without acquire");
      ++available_;
    }
  }

 private:
  Simulator* sim_;
  std::size_t available_;
  std::size_t capacity_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace lp::sim
