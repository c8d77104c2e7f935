#include "sim/simulator.h"

#include <utility>

namespace lp::sim {

Simulator::~Simulator() {
  // Drop pending callbacks (and their captures) without running them, then
  // destroy root frames; child frames are destroyed recursively by their
  // owners.
  callbacks_.clear();
  for (auto h : roots_) h.destroy();
}

void Simulator::spawn(Task task) {
  LP_CHECK(task.valid());
  auto h = task.release();
  roots_.push_back(h);
  queue_.push({now_, seq_++, h, 0});
}

void Simulator::call_after(DurationNs delay, std::function<void()> fn) {
  LP_CHECK(delay >= 0);
  std::size_t slot = callbacks_.size();
  if (free_slots_.empty()) {
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  queue_.push({now_ + delay, seq_++, {}, slot});
}

void Simulator::schedule_handle(TimeNs t, std::coroutine_handle<> h) {
  LP_CHECK(t >= now_);
  queue_.push({t, seq_++, h, 0});
}

void Simulator::step(const Entry& e) {
  now_ = e.time;
  ++executed_;
  if (e.handle) {
    if (!e.handle.done()) e.handle.resume();
    return;
  }
  // Take the callback out and free its slot first: the callback may
  // schedule more callbacks, which can reuse the slot or grow the table.
  std::function<void()> fn = std::exchange(callbacks_[e.slot], nullptr);
  free_slots_.push_back(e.slot);
  fn();
}

TimeNs Simulator::run() {
  while (!queue_.empty()) {
    const Entry e = queue_.top();
    queue_.pop();
    step(e);
  }
  return now_;
}

void Simulator::run_until(TimeNs t) {
  LP_CHECK(t >= now_);
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
