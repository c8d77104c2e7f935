#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

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
  Simulator sim;
  std::vector<TimeNs> ticks;
  sim.spawn(delayer(sim, ticks, 10, seconds(1)));
  sim.run_until(seconds(4) + 1);
  EXPECT_EQ(ticks.size(), 4u);
  EXPECT_EQ(sim.now(), seconds(4) + 1);
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

Task producer(Simulator& sim, Channel<int>& ch, int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(milliseconds(1));
    ch.send(i);
  }
}
Task consumer(Simulator& sim, Channel<int>& ch, int count,
              std::vector<int>& got) {
  (void)sim;
  for (int i = 0; i < count; ++i) {
    const int v = co_await ch.receive();
    got.push_back(v);
  }
}

TEST(Channel, DeliversInFifoOrderAcrossProcesses) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(consumer(sim, ch, 5, got));
  sim.spawn(producer(sim, ch, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BufferedSendsReceivedLater) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(7);
  ch.send(8);
  EXPECT_EQ(ch.size(), 2u);
  std::vector<int> got;
  sim.spawn(consumer(sim, ch, 2, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
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
  EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'D', 'C'}));
  EXPECT_EQ(sim.now(), milliseconds(1));
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

}  // namespace
}  // namespace lp::sim
