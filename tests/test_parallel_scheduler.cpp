/// \file test_parallel_scheduler.cpp
/// \brief Conservative parallel kernel: window semantics, mailbox
/// determinism, and the bit-identity contract at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desp/parallel_scheduler.hpp"
#include "desp/random.hpp"
#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

// --- RunWindow (the per-partition primitive) -------------------------------

class RunWindowTest : public ::testing::TestWithParam<EventQueueKind> {};

TEST_P(RunWindowTest, ExecutesStrictlyBelowEndAndLeavesClockAlone) {
  Scheduler s(GetParam());
  std::vector<int> fired;
  s.Schedule(1.0, [&] { fired.push_back(1); });
  s.Schedule(2.0, [&] { fired.push_back(2); });
  s.Schedule(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(s.RunWindow(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // Unlike RunUntil, the clock stays at the last executed event so the
  // next window's timestamps are unperturbed.
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST_P(RunWindowTest, EventExactlyAtEndBelongsToTheNextWindow) {
  Scheduler s(GetParam());
  int fired = 0;
  s.Schedule(2.0, [&] { ++fired; });
  EXPECT_EQ(s.RunWindow(2.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.RunWindow(2.0 + 1e-9), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(RunWindowTest, EventsScheduledInsideTheWindowStillRun) {
  Scheduler s(GetParam());
  std::vector<double> times;
  s.Schedule(1.0, [&] {
    times.push_back(s.Now());
    s.Schedule(0.5, [&] { times.push_back(s.Now()); });  // t=1.5 < end
    s.Schedule(2.0, [&] { times.push_back(s.Now()); });  // t=3.0 >= end
  });
  EXPECT_EQ(s.RunWindow(2.0), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST_P(RunWindowTest, NextEventTimeSkipsCancelledEntries) {
  Scheduler s(GetParam());
  EventHandle doomed = s.Schedule(1.0, [] {});
  s.Schedule(2.0, [] {});
  s.Cancel(doomed);
  ASSERT_TRUE(s.HasNextEvent());
  EXPECT_DOUBLE_EQ(s.NextEventTime(), 2.0);
  Scheduler empty(GetParam());
  EXPECT_FALSE(empty.HasNextEvent());
}

INSTANTIATE_TEST_SUITE_P(AllQueues, RunWindowTest,
                         ::testing::Values(EventQueueKind::kBinaryHeap,
                                           EventQueueKind::kQuaternaryHeap,
                                           EventQueueKind::kCalendar));

// --- ParallelScheduler ------------------------------------------------------

TEST(ParallelScheduler, IndependentPartitionsDrainInOneWindow) {
  ParallelScheduler::Options options;
  options.partitions = 3;
  ParallelScheduler ps(options);
  std::vector<int> fired(3, 0);
  for (size_t p = 0; p < 3; ++p) {
    for (int i = 1; i <= 4; ++i) {
      ps.partition(p).Schedule(i * 1.0, [&fired, p] { ++fired[p]; });
    }
  }
  // No edges registered: lookahead is infinite and everything runs in a
  // single window.
  EXPECT_EQ(ps.Run(), 12u);
  EXPECT_EQ(ps.Windows(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(ps.MaxNow(), 4.0);
}

TEST(ParallelScheduler, WindowDerivesFromMinimumEdgeDelay) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  ParallelScheduler ps(options);
  ps.SetEdgeDelay(0, 1, 5.0);
  ps.SetEdgeDelay(1, 0, 3.0);
  EXPECT_DOUBLE_EQ(ps.Lookahead(), 3.0);
  EXPECT_DOUBLE_EQ(ps.Window(), 3.0);
}

TEST(ParallelScheduler, ExplicitWindowMustStayConservative) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  options.window = 10.0;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(3.0);
  EXPECT_THROW(ps.Window(), util::Error);
  ParallelScheduler::Options ok = options;
  ok.window = 2.0;
  ParallelScheduler ps2(ok);
  ps2.SetUniformEdgeDelay(3.0);
  EXPECT_DOUBLE_EQ(ps2.Window(), 2.0);
}

TEST(ParallelScheduler, SendToValidatesEdgeAndDelay) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  ParallelScheduler ps(options);
  EXPECT_THROW(ps.SendTo(0, 1, 1.0, [] {}), util::Error);  // unregistered
  ps.SetEdgeDelay(0, 1, 2.0);
  EXPECT_THROW(ps.SendTo(0, 1, 1.0, [] {}), util::Error);  // below lookahead
  EXPECT_THROW(ps.SetEdgeDelay(0, 1, 0.0), util::Error);   // zero lookahead
  ps.SendTo(0, 1, 2.0, [] {});  // exactly the edge delay is legal
}

TEST(ParallelScheduler, CrossPartitionDeliveryHonorsTimePriorityAndSource) {
  ParallelScheduler::Options options;
  options.partitions = 3;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(1.0);
  std::vector<std::string> order;
  // Both sources mail partition 2 at the same delivery time; priority
  // breaks the first tie, source index the second.
  ps.partition(2).Schedule(0.5, [&] { order.push_back("local"); });
  ps.SendTo(0, 2, 4.0, [&] { order.push_back("from0-low"); }, 0);
  ps.SendTo(1, 2, 4.0, [&] { order.push_back("from1-high"); }, 5);
  ps.SendTo(1, 2, 4.0, [&] { order.push_back("from1-low"); }, 0);
  ps.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"local", "from1-high",
                                             "from0-low", "from1-low"}));
  EXPECT_EQ(ps.CrossEvents(), 3u);
}

TEST(ParallelScheduler, MailDeliveryMatchesStableSortOfSourceOrder) {
  // Out-of-order mailboxes with many equal (time, priority) keys: the
  // delivered order must be the stable sort, by (time, priority desc), of
  // the mail concatenated in source order with per-edge FIFO kept.
  constexpr size_t kSources = 4;
  constexpr int kPerEdge = 300;
  ParallelScheduler::Options options;
  options.partitions = kSources + 1;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(1.0);
  struct Sent {
    double time;
    int priority;
    size_t source;
    int index;
  };
  std::vector<Sent> sent;
  std::vector<std::pair<size_t, int>> delivered;
  RandomStream rng(7);
  for (size_t from = 0; from < kSources; ++from) {
    for (int i = 0; i < kPerEdge; ++i) {
      const double time = 1.0 + static_cast<double>(rng.UniformInt(0, 5));
      const int priority = static_cast<int>(rng.UniformInt(0, 1));
      sent.push_back(Sent{time, priority, from, i});
      ps.SendTo(from, kSources, time,
                [&delivered, from, i] { delivered.emplace_back(from, i); },
                priority);
    }
  }
  std::stable_sort(sent.begin(), sent.end(),
                   [](const Sent& a, const Sent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.priority > b.priority;
                   });
  ps.Run();
  ASSERT_EQ(delivered.size(), sent.size());
  for (size_t k = 0; k < sent.size(); ++k) {
    EXPECT_EQ(delivered[k], std::make_pair(sent[k].source, sent[k].index))
        << "at position " << k;
  }
}

TEST(ParallelScheduler, PooledRunRethrowsPartitionError) {
  ParallelScheduler::Options options;
  options.partitions = 4;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(1.0);
  int late = 0;
  for (size_t p = 0; p < 4; ++p) {
    ps.partition(p).Schedule(0.5, [p] { VOODB_CHECK_MSG(p != 2, "boom"); });
    ps.partition(p).Schedule(10.0, [&late] { ++late; });
  }
  exp::ExecutorOptions eo;
  eo.threads = 4;
  exp::ThreadPool pool(eo);
  EXPECT_THROW(ps.Run(&pool), util::Error);
  EXPECT_EQ(late, 0);  // the run stopped after the failing window
  // The helpers went back to the pool, which still runs new work.
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.Submit([&ran] { ran = true; }));
  pool.Wait();
  EXPECT_TRUE(ran);
}

TEST(ParallelScheduler, PooledRunOnCancelledPoolRunsSerially) {
  ParallelScheduler::Options options;
  options.partitions = 3;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(1.0);
  std::vector<int> fired(3, 0);
  for (size_t p = 0; p < 3; ++p) {
    ps.partition(p).Schedule(0.5, [&fired, p] { ++fired[p]; });
    ps.partition(p).Schedule(4.0, [&fired, p] { ++fired[p]; });
  }
  exp::ExecutorOptions eo;
  eo.threads = 3;
  exp::ThreadPool pool(eo);
  pool.Cancel();
  EXPECT_EQ(ps.Run(&pool), 6u);
  EXPECT_EQ(fired, (std::vector<int>{2, 2, 2}));
}

// --- Bit-identity: serial vs pooled execution ------------------------------

struct KeyTrace {
  std::vector<EventKey> keys;
  static void Record(void* ctx, const EventKey& key) {
    static_cast<KeyTrace*>(ctx)->keys.push_back(key);
  }
};

bool SameKeys(const std::vector<EventKey>& a, const std::vector<EventKey>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].time, &b[i].time, sizeof(SimTime)) != 0 ||
        a[i].priority != b[i].priority || a[i].seq != b[i].seq) {
      return false;
    }
  }
  return true;
}

/// A ring workload: every partition runs self-rescheduling chains with
/// pseudo-random delays; every few hops it mails the next partition,
/// which replies.  Exercises windows, mailboxes, and seq assignment.
class RingWorkload {
 public:
  RingWorkload(ParallelScheduler* ps, double lookahead)
      : ps_(ps), lookahead_(lookahead) {
    const size_t n = ps->partitions();
    rngs_.reserve(n);
    for (size_t p = 0; p < n; ++p) rngs_.emplace_back(RandomStream(99).Derive(p));
    counts_.assign(n, 0);
    // Every chain starts from the latest partition clock, so a workload
    // scheduled after an earlier Run() never mails into a partition's
    // past.
    for (size_t p = 0; p < n; ++p) {
      Chain(p, 40, ps->MaxNow() - ps->partition(p).Now());
    }
  }

  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  void Chain(size_t p, int remaining, double offset = 0.0) {
    if (remaining == 0) return;
    const double delay = rngs_[p].Uniform(0.3, 2.0) + offset;
    ps_->partition(p).Schedule(delay, [this, p, remaining] {
      ++counts_[p];
      if (remaining % 4 == 0) {
        const size_t to = (p + 1) % ps_->partitions();
        ps_->SendTo(p, to, lookahead_ + 0.25, [this, to] { ++counts_[to]; });
      }
      Chain(p, remaining - 1);
    });
  }

  ParallelScheduler* ps_;
  double lookahead_;
  std::vector<RandomStream> rngs_;
  std::vector<uint64_t> counts_;
};

struct RingRun {
  std::vector<std::vector<EventKey>> traces;
  std::vector<double> clocks;
  std::vector<uint64_t> counts;
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross = 0;
};

/// `runs` consecutive Run() calls on one kernel (and one pool), each
/// after scheduling a fresh ring workload from the partitions' clocks.
RingRun RunRing(size_t partitions, size_t threads, EventQueueKind kind,
                size_t runs = 1) {
  ParallelScheduler::Options options;
  options.partitions = partitions;
  options.queue = kind;
  ParallelScheduler ps(options);
  const double lookahead = 1.5;
  ps.SetUniformEdgeDelay(lookahead);
  std::vector<KeyTrace> traces(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ps.partition(p).SetTraceHook(&KeyTrace::Record, &traces[p]);
  }
  std::unique_ptr<exp::ThreadPool> pool;
  if (threads > 1) {
    exp::ExecutorOptions eo;
    eo.threads = threads;
    pool = std::make_unique<exp::ThreadPool>(eo);
  }
  RingRun run;
  std::vector<std::unique_ptr<RingWorkload>> workloads;
  for (size_t r = 0; r < runs; ++r) {
    workloads.push_back(std::make_unique<RingWorkload>(&ps, lookahead));
    run.executed += ps.Run(pool.get());
    const std::vector<uint64_t>& counts = workloads.back()->counts();
    run.counts.insert(run.counts.end(), counts.begin(), counts.end());
  }
  for (size_t p = 0; p < partitions; ++p) {
    run.traces.push_back(std::move(traces[p].keys));
    run.clocks.push_back(ps.partition(p).Now());
  }
  run.windows = ps.Windows();
  run.cross = ps.CrossEvents();
  return run;
}

void ExpectSameRun(const RingRun& pooled, const RingRun& serial,
                   const std::string& label) {
  EXPECT_EQ(pooled.executed, serial.executed) << label;
  EXPECT_EQ(pooled.windows, serial.windows) << label;
  EXPECT_EQ(pooled.cross, serial.cross) << label;
  EXPECT_EQ(pooled.counts, serial.counts) << label;
  ASSERT_EQ(pooled.traces.size(), serial.traces.size()) << label;
  for (size_t p = 0; p < serial.traces.size(); ++p) {
    EXPECT_TRUE(SameKeys(pooled.traces[p], serial.traces[p]))
        << "partition " << p << " diverged: " << label;
    EXPECT_EQ(
        std::memcmp(&pooled.clocks[p], &serial.clocks[p], sizeof(double)), 0)
        << "partition " << p << " clock diverged: " << label;
  }
}

class ParallelIdentityTest : public ::testing::TestWithParam<EventQueueKind> {};

TEST_P(ParallelIdentityTest, PooledRunsAreBitIdenticalToSerial) {
  const size_t partitions = 4;
  const RingRun serial = RunRing(partitions, 1, GetParam());
  ASSERT_GT(serial.executed, 160u);  // chains + cross deliveries all ran
  ASSERT_GT(serial.cross, 0u);
  ASSERT_GT(serial.windows, 1u);  // the window protocol actually engaged
  for (const size_t threads : {2u, 4u, 8u}) {
    ExpectSameRun(RunRing(partitions, threads, GetParam()), serial,
                  std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelIdentityTest, UnevenLaneSplitsAreBitIdenticalToSerial) {
  // Five partitions split unevenly over 2, 3 or 4 lanes, and at 8
  // threads there are more threads than partitions.
  const size_t partitions = 5;
  const RingRun serial = RunRing(partitions, 1, GetParam());
  ASSERT_GT(serial.windows, 1u);
  for (const size_t threads : {2u, 3u, 4u, 8u}) {
    ExpectSameRun(RunRing(partitions, threads, GetParam()), serial,
                  std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelIdentityTest, ConsecutiveRunsOnOnePoolAreBitIdenticalToSerial) {
  // The second Run() needs the first one's helpers back in the pool.
  const size_t partitions = 4;
  const RingRun serial = RunRing(partitions, 1, GetParam(), /*runs=*/2);
  ASSERT_EQ(serial.counts.size(), 2 * partitions);
  for (const size_t threads : {2u, 4u}) {
    ExpectSameRun(RunRing(partitions, threads, GetParam(), /*runs=*/2),
                  serial, std::to_string(threads) + " threads, two runs");
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueues, ParallelIdentityTest,
                         ::testing::Values(EventQueueKind::kBinaryHeap,
                                           EventQueueKind::kQuaternaryHeap,
                                           EventQueueKind::kCalendar));

}  // namespace
}  // namespace voodb::desp
