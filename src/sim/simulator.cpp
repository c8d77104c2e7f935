#include "sim/simulator.h"

#include <limits>
#include <utility>

namespace lp::sim {

Simulator::~Simulator() {
  // Root frames only; child frames are destroyed recursively by their
  // owners. A call_after process that never ran drops its captures here.
  for (auto h : roots_) h.destroy();
}

void Simulator::spawn(Task task) {
  LP_CHECK(task.valid());
  auto h = task.release();
  roots_.push_back(h);
  queue_.push({now_, seq_++, h});
}

namespace {

// The call_after coroutine. Unlike a Task, whose exception waits for an
// awaiting parent, it lets the callback's exception escape run().
struct OneShot {
  struct promise_type {
    OneShot get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { throw; }
  };
  std::coroutine_handle<promise_type> handle;
};

OneShot run_once(std::function<void()> fn) {
  // The frame lives until teardown; emptying fn first frees the captures
  // as soon as the callback returns.
  std::exchange(fn, nullptr)();
  co_return;
}

}  // namespace

void Simulator::call_after(DurationNs delay, std::function<void()> fn) {
  LP_CHECK(delay >= 0);
  const std::coroutine_handle<> h = run_once(std::move(fn)).handle;
  roots_.push_back(h);
  queue_.push({now_ + delay, seq_++, h});
}

void Simulator::schedule_handle(TimeNs t, std::coroutine_handle<> h) {
  LP_CHECK(t >= now_);
  queue_.push({t, seq_++, h});
}

void Simulator::step(const Entry& e) {
  now_ = e.time;
  ++executed_;
  if (!e.handle.done()) e.handle.resume();
}

TimeNs Simulator::run() {
  bound_ = std::numeric_limits<TimeNs>::max();
  while (!queue_.empty()) {
    const Entry e = queue_.top();
    queue_.pop();
    step(e);
  }
  return now_;
}

void Simulator::run_until(TimeNs t) {
  LP_CHECK(t >= now_);
  bound_ = t;
  while (!queue_.empty() && queue_.top().time <= t) {
    const Entry e = queue_.top();
    queue_.pop();
    step(e);
  }
  now_ = t;
}

void Event::trigger() {
  triggered_ = true;
  for (auto h : waiters_) sim_->schedule_handle(sim_->now(), h);
  waiters_.clear();
}

}  // namespace lp::sim
