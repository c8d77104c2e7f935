#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace lp::sim {
namespace {

TEST(Simulator, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CallAfterFiresInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.call_after(milliseconds(2), [&] { order.push_back(2); });
  sim.call_after(milliseconds(1), [&] { order.push_back(1); });
  sim.call_after(milliseconds(3), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(3));
}

TEST(Simulator, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.call_after(milliseconds(1), [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

Task delayer(Simulator& sim, std::vector<TimeNs>& ticks, int count,
             DurationNs step) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(step);
    ticks.push_back(sim.now());
  }
}

TEST(Simulator, CoroutineDelayAdvancesVirtualTime) {
  Simulator sim;
  std::vector<TimeNs> ticks;
  sim.spawn(delayer(sim, ticks, 3, seconds(1)));
  sim.run();
  EXPECT_EQ(ticks,
            (std::vector<TimeNs>{seconds(1), seconds(2), seconds(3)}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  // A lone process's delays never queue behind anything, so each resumes
  // in place, but only while it ends within the running call's bound.
  Simulator sim;
  std::vector<TimeNs> ticks;
  sim.spawn(delayer(sim, ticks, 10, seconds(1)));
  sim.run_until(seconds(4) + 1);
  EXPECT_EQ(ticks.size(), 4u);
  EXPECT_EQ(sim.now(), seconds(4) + 1);
  sim.run_until(seconds(5));  // the fifth delay ends exactly on the bound
  EXPECT_EQ(ticks.size(), 5u);
  sim.run_until(seconds(6) - 1);  // the sixth ends 1 ns past it
  EXPECT_EQ(ticks.size(), 5u);
  EXPECT_EQ(sim.now(), seconds(6) - 1);
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks.size(), 10u);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.call_after(-1, [] {}), ContractError);
}

Task parent_of(Simulator& sim, std::vector<int>& log);
Task child_of(Simulator& sim, std::vector<int>& log) {
  log.push_back(1);
  co_await sim.delay(milliseconds(5));
  log.push_back(2);
}
Task parent_of(Simulator& sim, std::vector<int>& log) {
  log.push_back(0);
  co_await child_of(sim, log);
  log.push_back(3);
}

TEST(Task, AwaitRunsChildToCompletionBeforeParentResumes) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(parent_of(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(5));
}

Task thrower(Simulator& sim) {
  co_await sim.delay(1);
  throw std::runtime_error("child failed");
}
Task catcher(Simulator& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ChildExceptionPropagatesToAwaitingParent) {
  Simulator sim;
  bool caught = false;
  sim.spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task waiter(Simulator& sim, Event& ev, std::vector<TimeNs>& woke) {
  co_await ev.wait();
  woke.push_back(sim.now());
}

TEST(Event, BroadcastsToAllWaitersAtTriggerTime) {
  Simulator sim;
  Event ev(sim);
  std::vector<TimeNs> woke;
  sim.spawn(waiter(sim, ev, woke));
  sim.spawn(waiter(sim, ev, woke));
  sim.call_after(seconds(2), [&] { ev.trigger(); });
  sim.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], seconds(2));
  EXPECT_EQ(woke[1], seconds(2));
}

TEST(Event, WaitAfterTriggerCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.trigger();
  std::vector<TimeNs> woke;
  sim.spawn(waiter(sim, ev, woke));
  sim.run();
  ASSERT_EQ(woke.size(), 1u);
  EXPECT_EQ(woke[0], 0);
}

TEST(Event, ResetMakesItReusable) {
  Simulator sim;
  Event ev(sim);
  std::vector<TimeNs> woke;
  ev.trigger();
  EXPECT_TRUE(ev.triggered());
  ev.reset();
  EXPECT_FALSE(ev.triggered());
  sim.spawn(waiter(sim, ev, woke));
  sim.call_after(seconds(1), [&] { ev.trigger(); });
  sim.run();
  ASSERT_EQ(woke.size(), 1u);
  EXPECT_EQ(woke[0], seconds(1));
}

TEST(Simulator, CallbackCanScheduleMoreWork) {
  Simulator sim;
  std::vector<TimeNs> fired;
  sim.call_after(seconds(1), [&] {
    fired.push_back(sim.now());
    sim.call_after(seconds(2), [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{seconds(1), seconds(3)}));
}

Task deep_chain(Simulator& sim, int depth, int& reached) {
  if (depth == 0) {
    reached = 0;
    co_return;
  }
  co_await sim.delay(1);
  co_await deep_chain(sim, depth - 1, reached);
  reached = std::max(reached, depth);
}

TEST(Task, NestedAwaitChains) {
  Simulator sim;
  int reached = -1;
  sim.spawn(deep_chain(sim, 50, reached));
  sim.run();
  EXPECT_EQ(reached, 50);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, ManyConcurrentProcessesInterleaveCorrectly) {
  Simulator sim;
  std::vector<TimeNs> ticks;
  for (int i = 0; i < 100; ++i)
    sim.spawn(delayer(sim, ticks, 10, milliseconds(i + 1)));
  sim.run();
  EXPECT_EQ(ticks.size(), 1000u);
  // Time stamps must be non-decreasing in execution order.
  for (std::size_t i = 1; i < ticks.size(); ++i)
    EXPECT_GE(ticks[i], ticks[i - 1]);
  EXPECT_EQ(sim.now(), milliseconds(1000));
}

Task resource_user(Simulator& sim, Resource& res, DurationNs hold,
                   std::vector<std::pair<TimeNs, TimeNs>>& spans) {
  co_await res.acquire();
  const TimeNs begin = sim.now();
  co_await sim.delay(hold);
  spans.emplace_back(begin, sim.now());
  res.release();
}

TEST(Resource, SerializesWithCapacityOne) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<std::pair<TimeNs, TimeNs>> spans;
  for (int i = 0; i < 4; ++i)
    sim.spawn(resource_user(sim, res, milliseconds(10), spans));
  sim.run();
  ASSERT_EQ(spans.size(), 4u);
  // Non-overlapping, back to back, FIFO.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].first, spans[i - 1].second);
  EXPECT_EQ(sim.now(), milliseconds(40));
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<std::pair<TimeNs, TimeNs>> spans;
  for (int i = 0; i < 4; ++i)
    sim.spawn(resource_user(sim, res, milliseconds(10), spans));
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(20));
  EXPECT_EQ(res.available(), 2u);
  EXPECT_EQ(res.waiters(), 0u);
}

TEST(Resource, ReleaseWithoutAcquireIsAContractViolation) {
  Simulator sim;
  Resource res(sim, 1);
  EXPECT_THROW(res.release(), ContractError);
}

TEST(Simulator, ExecutedEventsCount) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.call_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 10u);
  // A lone process's start is one event and each of its N delays another,
  // though every delay resumes in place.
  std::vector<TimeNs> ticks;
  sim.spawn(delayer(sim, ticks, 7, 3));
  sim.run();
  EXPECT_EQ(ticks.size(), 7u);
  EXPECT_EQ(sim.executed_events(), 10u + 7 + 1);
}

Task tagger(Simulator& sim, std::vector<char>& order, char tag) {
  co_await sim.delay(milliseconds(1));
  order.push_back(tag);
}

TEST(Simulator, EqualTimestampsFifoAcrossResumesAndCallbacks) {
  // A callback is a one-shot process that takes its sequence number at the
  // call, like any resume: at equal timestamps, scheduling order decides.
  Simulator sim;
  std::vector<char> order;
  sim.spawn(tagger(sim, order, 'A'));
  sim.call_after(milliseconds(1), [&] { order.push_back('B'); });
  sim.call_after(0, [&] {
    sim.call_after(milliseconds(1), [&] { order.push_back('D'); });
  });
  sim.spawn(tagger(sim, order, 'C'));
  sim.run();
  // All four fire at 1 ms in the order they were scheduled: B during
  // set-up, then A's resume, D and C's resume while the clock ran at 0.
  // So A's delay, which ends on B's time, resumes after B, not in place.
  EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'D', 'C'}));
  EXPECT_EQ(sim.now(), milliseconds(1));
}

Task trigger_then_yield(Simulator& sim, Event& ev, std::vector<char>& order) {
  ev.trigger();
  co_await sim.delay(0);
  order.push_back('T');
}

Task tagged_waiter(Event& ev, std::vector<char>& order) {
  co_await ev.wait();
  order.push_back('W');
}

TEST(Event, ZeroDelayAfterTriggerResumesAfterTheWokenWaiter) {
  Simulator sim;
  Event ev(sim);
  std::vector<char> order;
  sim.spawn(tagged_waiter(ev, order));
  sim.spawn(trigger_then_yield(sim, ev, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'W', 'T'}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CallbackExceptionEscapesRun) {
  Simulator sim;
  auto payload = std::make_shared<int>(7);
  sim.call_after(seconds(1), [payload] { throw std::runtime_error("cb"); });
  sim.call_after(seconds(2), [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), seconds(1));
  EXPECT_EQ(payload.use_count(), 1);  // the thrower's captures are gone
  sim.run();  // the simulator keeps going past the failed callback
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulator, RootProcessExceptionEscapesRun) {
  Simulator sim;
  sim.spawn(thrower(sim));
  sim.call_after(seconds(2), [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), 1);
  sim.run();  // the simulator keeps going past the failed process
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulator, TeardownDestroysPendingCallbackCaptures) {
  auto payload = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.call_after(seconds(1), [payload] {});
    sim.call_after(seconds(2), [payload] {});
    sim.run_until(seconds(1));
    EXPECT_EQ(payload.use_count(), 2);  // the fired capture is gone
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Simulator, TeardownWithSuspendedProcessesDoesNotCrash) {
  std::vector<TimeNs> ticks;
  {
    Simulator sim;
    sim.spawn(delayer(sim, ticks, 1000, seconds(1)));
    sim.run_until(seconds(3));
    // Simulator destroyed with the process still suspended mid-loop.
  }
  EXPECT_EQ(ticks.size(), 3u);
}

// A differential check of the event order. Seeded random scripts run as
// coroutines on the simulator, and again on a reference that keeps every
// pending resume in a plain list and pops the (time, seq) minimum by a
// linear scan, so nothing there ever resumes in place.
enum class Op { kDelay, kCallAfter, kTrigger, kWait };

struct Step {
  Op op;
  DurationNs d;  // kDelay and kCallAfter
  int event;     // kCallAfter (its callback triggers it), kTrigger, kWait
};

using Script = std::vector<std::vector<Step>>;  // one step list per process

constexpr int kEvents = 3;

// One completed step: a process's (who >= 0), or that of the callback
// scheduled at process `-1 - who`'s step (who < 0).
struct Mark {
  int call;  // index of the run call it happened in
  int who;
  int step;
  TimeNs now;
  bool operator==(const Mark&) const = default;
  // Printed as call/who/step@now.
  friend std::ostream& operator<<(std::ostream& os, const Mark& m) {
    return os << m.call << '/' << m.who << '/' << m.step << '@' << m.now;
  }
};

Op random_op(Rng& rng) {
  const auto r = rng.uniform_int(0, 19);
  if (r < 12) return Op::kDelay;
  if (r < 15) return Op::kCallAfter;
  if (r < 17) return Op::kTrigger;
  return Op::kWait;
}

Script random_script(Rng& rng) {
  // Small delays make ties and zero delays common; 1000 ns outlasts them.
  static constexpr DurationNs kDelays[] = {0, 1, 2, 3, 1000};
  Script script(rng.uniform_int(2, 8));
  for (auto& steps : script) {
    for (auto n = rng.uniform_int(1, 10); n > 0; --n) {
      const Op op = random_op(rng);
      const DurationNs d = kDelays[rng.uniform_int(0, 4)];
      const auto event = static_cast<int>(rng.uniform_int(0, kEvents - 1));
      steps.push_back({op, d, event});
    }
  }
  return script;
}

Task play(Simulator& sim, const std::vector<Step>& steps, int who,
          std::vector<Event>& events, const int& call, std::vector<Mark>& log) {
  for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
    const Step st = steps[s];
    switch (st.op) {
      case Op::kDelay:
        co_await sim.delay(st.d);
        break;
      case Op::kCallAfter:
        sim.call_after(st.d, [&sim, &events, &call, &log, who, s, st] {
          log.push_back({call, -1 - who, s, sim.now()});
          events[st.event].trigger();
        });
        break;
      case Op::kTrigger:
        events[st.event].trigger();
        break;
      case Op::kWait:
        co_await events[st.event].wait();
        break;
    }
    log.push_back({call, who, s, sim.now()});
  }
}

class ReferenceOrder {
 public:
  explicit ReferenceOrder(const Script& script)
      : script_(script), at_(script.size(), -1) {
    for (int p = 0; p < static_cast<int>(script.size()); ++p) push(0, p, -1);
  }

  bool idle() const { return pending_.empty(); }
  TimeNs now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  const std::vector<Mark>& log() const { return log_; }
  // The time of pending entry i, counted round the list.
  TimeNs pending_time(std::uint64_t i) const {
    return pending_[i % pending_.size()].time;
  }

  void run_until(TimeNs t) {
    while (!pending_.empty() && earliest()->time <= t) pop();
    now_ = t;
    ++call_;
  }

  void run() {
    while (!pending_.empty()) pop();
    ++call_;
  }

 private:
  struct Pending {
    TimeNs time;
    std::uint64_t seq;
    int who;   // as in Mark
    int step;  // a callback's step; -1 for a process
  };

  void push(TimeNs t, int who, int step) {
    pending_.push_back({t, seq_++, who, step});
  }

  std::vector<Pending>::iterator earliest() {
    return std::min_element(pending_.begin(), pending_.end(),
                            [](const Pending& a, const Pending& b) {
                              if (a.time != b.time) return a.time < b.time;
                              return a.seq < b.seq;
                            });
  }

  void pop() {
    const auto it = earliest();
    const Pending e = *it;
    pending_.erase(it);
    now_ = e.time;
    ++executed_;
    if (e.who >= 0) {
      resume(e.who);
    } else {
      log_.push_back({call_, e.who, e.step, now_});
      trigger(script_[-1 - e.who][e.step].event);
    }
  }

  void trigger(int ev) {
    triggered_[ev] = true;
    for (int w : waiters_[ev]) push(now_, w, -1);
    waiters_[ev].clear();
  }

  // Completes the step the process is suspended at, if it has started, and
  // then runs its steps until one suspends it or none is left.
  void resume(int who) {
    const auto& steps = script_[who];
    int& s = at_[who];
    if (s >= 0) log_.push_back({call_, who, s, now_});
    for (++s; s < static_cast<int>(steps.size()); ++s) {
      const Step& st = steps[s];
      switch (st.op) {
        case Op::kDelay:
          push(now_ + st.d, who, -1);
          return;
        case Op::kCallAfter:
          push(now_ + st.d, -1 - who, s);
          break;
        case Op::kTrigger:
          trigger(st.event);
          break;
        case Op::kWait:
          if (!triggered_[st.event]) {
            waiters_[st.event].push_back(who);
            return;
          }
          break;
      }
      log_.push_back({call_, who, s, now_});
    }
  }

  const Script& script_;
  std::vector<int> at_;  // the step each process is at; -1 before it starts
  std::vector<Pending> pending_;
  bool triggered_[kEvents] = {};
  std::vector<int> waiters_[kEvents];
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  int call_ = 0;
  std::vector<Mark> log_;
};

TEST(Simulator, InPlaceResumesKeepTheHeapOrder) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const Script script = random_script(rng);
    ReferenceOrder ref(script);
    Simulator sim;
    std::vector<Event> events(kEvents, Event(sim));
    std::vector<Mark> log;
    int call = 0;
    for (int p = 0; p < static_cast<int>(script.size()); ++p)
      sim.spawn(play(sim, script[p], p, events, call, log));
    // Bounds on a pending time, 1 ns before one or 1 ns after one, then a
    // run to the end.
    for (const auto calls = rng.uniform_int(1, 5); call < calls; ++call) {
      if (ref.idle()) break;
      const TimeNs at = ref.pending_time(rng());
      const TimeNs t = std::max(ref.now(), at + rng.uniform_int(-1, 1));
      ref.run_until(t);
      sim.run_until(t);
      ASSERT_EQ(sim.now(), ref.now());
    }
    ref.run();
    sim.run();
    ASSERT_EQ(sim.now(), ref.now());
    ASSERT_EQ(log, ref.log());
    ASSERT_EQ(sim.executed_events(), ref.executed());
  }
}

}  // namespace
}  // namespace lp::sim
