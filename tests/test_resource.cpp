/// \file test_resource.cpp
/// \brief Tests for DESP passive resources (capacity, queueing, stats) and
/// the slot pool that holds their in-service requests.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "desp/random.hpp"
#include "desp/resource.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

TEST(Resource, GrantsUpToCapacity) {
  Scheduler s;
  Resource r(&s, "r", 2);
  int granted = 0;
  for (int i = 0; i < 3; ++i) {
    r.Acquire([&] { ++granted; });
  }
  s.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(r.busy(), 2u);
  EXPECT_EQ(r.QueueLength(), 1u);
  r.Release();
  s.Run();
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(r.QueueLength(), 0u);
}

TEST(Resource, FifoOrder) {
  Scheduler s;
  Resource r(&s, "r", 1, QueueDiscipline::kFifo);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    r.Acquire([&, i] {
      order.push_back(i);
      s.Schedule(1.0, [&r] { r.Release(); });
    });
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Resource, LifoOrder) {
  Scheduler s;
  Resource r(&s, "r", 1, QueueDiscipline::kLifo);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    r.Acquire([&, i] {
      order.push_back(i);
      s.Schedule(1.0, [&r] { r.Release(); });
    });
  }
  s.Run();
  // 0 grabs the server; the queue (1,2,3) is served LIFO.
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(Resource, PriorityOrder) {
  Scheduler s;
  Resource r(&s, "r", 1, QueueDiscipline::kPriority);
  std::vector<int> order;
  auto hold = [&](int id, double priority) {
    r.Acquire(
        [&, id] {
          order.push_back(id);
          s.Schedule(1.0, [&r] { r.Release(); });
        },
        priority);
  };
  hold(0, 0.0);  // served immediately
  hold(1, 1.0);
  hold(2, 5.0);
  hold(3, 1.0);
  s.Run();
  // Queue served by priority desc, FIFO among equals: 2, 1, 3.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(Resource, AcquireForHoldsForServiceTime) {
  Scheduler s;
  Resource r(&s, "r", 1);
  std::vector<double> completion;
  for (int i = 0; i < 3; ++i) {
    r.AcquireFor(10.0, [&] { completion.push_back(s.Now()); });
  }
  s.Run();
  // Serialized on a capacity-1 server: 10, 20, 30.
  ASSERT_EQ(completion.size(), 3u);
  EXPECT_DOUBLE_EQ(completion[0], 10.0);
  EXPECT_DOUBLE_EQ(completion[1], 20.0);
  EXPECT_DOUBLE_EQ(completion[2], 30.0);
}

TEST(Resource, UtilizationAndQueueStats) {
  Scheduler s;
  Resource r(&s, "r", 1);
  r.AcquireFor(5.0, [] {});
  s.Run();
  s.Schedule(5.0, [] {});  // idle until t=10
  s.Run();
  // Busy 5 of 10 time units.
  EXPECT_NEAR(r.Utilization(), 0.5, 1e-9);
  EXPECT_EQ(r.Grants(), 1u);
}

TEST(Resource, WaitTimesMeasured) {
  Scheduler s;
  Resource r(&s, "r", 1);
  r.AcquireFor(4.0, [] {});
  r.AcquireFor(4.0, [] {});  // waits 4
  s.Run();
  EXPECT_EQ(r.WaitTimes().count(), 2u);
  EXPECT_DOUBLE_EQ(r.WaitTimes().max(), 4.0);
  EXPECT_DOUBLE_EQ(r.WaitTimes().min(), 0.0);
}

TEST(Resource, ReleaseWithoutHoldThrows) {
  Scheduler s;
  Resource r(&s, "r", 1);
  EXPECT_THROW(r.Release(), util::Error);
}

TEST(Resource, RejectsBadConstruction) {
  Scheduler s;
  EXPECT_THROW(Resource(&s, "bad", 0), util::Error);
}

TEST(Resource, MmOneQueueSanity) {
  // M/M/1-ish sanity: with utilization ~0.5 the mean queue stays small,
  // with utilization ~0.95 it grows.  Deterministic arrival/service here:
  // arrivals every 2.0, service 1.0 (rho = 0.5) -> queue stays ~0.
  Scheduler s;
  Resource r(&s, "r", 1);
  for (int i = 0; i < 100; ++i) {
    s.Schedule(2.0 * i, [&] { r.AcquireFor(1.0, [] {}); });
  }
  s.Run();
  EXPECT_LT(r.MeanQueueLength(), 0.01);
  EXPECT_NEAR(r.Utilization(), 0.5, 0.05);
}

TEST(Resource, QueueBuildsUpWhenOverloaded) {
  Scheduler s;
  Resource r(&s, "r", 1);
  for (int i = 0; i < 50; ++i) {
    s.Schedule(1.0 * i, [&] { r.AcquireFor(2.0, [] {}); });
  }
  s.Run();
  // Arrival rate 1, service rate 0.5: queue grows linearly.
  EXPECT_GT(r.MeanQueueLength(), 5.0);
  EXPECT_GT(r.WaitTimes().max(), 20.0);
}

TEST(Resource, WaitRingMatchesReferenceQueueUnderChurn) {
  // Long random runs of acquires and releases push the wait ring through
  // growth and many wrap-arounds; the grant order must match a plain
  // vector model of each discipline.
  for (const QueueDiscipline discipline :
       {QueueDiscipline::kFifo, QueueDiscipline::kLifo,
        QueueDiscipline::kPriority}) {
    Scheduler s;
    Resource r(&s, "r", 2, discipline);
    RandomStream rng(3);
    struct Queued {
      int id;
      double priority;
    };
    std::vector<Queued> model_queue;
    uint64_t model_busy = 0;
    std::vector<int> granted;
    std::vector<int> expected;
    int next_id = 0;
    for (int step = 0; step < 5000; ++step) {
      // Phases that mostly queue, then mostly drain, move the ring head.
      const bool filling = (step / 250) % 2 == 0;
      if (model_busy == 0 || rng.Bernoulli(filling ? 0.7 : 0.3)) {
        const int id = next_id++;
        const double priority = static_cast<double>(rng.UniformInt(0, 3));
        r.Acquire([&granted, id] { granted.push_back(id); }, priority);
        if (model_busy < 2) {
          ++model_busy;
          expected.push_back(id);
        } else {
          model_queue.push_back(Queued{id, priority});
        }
      } else {
        r.Release();
        --model_busy;
        if (!model_queue.empty()) {
          size_t pick = 0;
          if (discipline == QueueDiscipline::kLifo) {
            pick = model_queue.size() - 1;
          } else if (discipline == QueueDiscipline::kPriority) {
            for (size_t i = 1; i < model_queue.size(); ++i) {
              if (model_queue[i].priority > model_queue[pick].priority) {
                pick = i;
              }
            }
          }
          expected.push_back(model_queue[pick].id);
          model_queue.erase(model_queue.begin() +
                            static_cast<std::ptrdiff_t>(pick));
          ++model_busy;
        }
      }
      s.Run();
      ASSERT_EQ(r.QueueLength(), model_queue.size()) << "step " << step;
    }
    EXPECT_EQ(granted, expected) << ToString(discipline);
  }
}

struct PooledState {
  std::vector<int> values;
  void Recycle() { values.clear(); }
};

TEST(SlotPool, RecyclesSlotsAndRejectsStaleHandles) {
  SlotPool<PooledState> pool;
  const auto a = pool.Alloc();
  const auto b = pool.Alloc();
  pool.At(a).values.assign(100, 1);
  const int* storage = pool.At(a).values.data();
  EXPECT_EQ(pool.live(), 2u);
  pool.Free(a);
  EXPECT_THROW(pool.At(a), util::Error);  // stale: the slot was freed
  EXPECT_THROW(pool.Free(a), util::Error);
  // The freed slot comes back cleared but with its capacity kept, under a
  // new generation, so the old handle stays stale.
  const auto c = pool.Alloc();
  EXPECT_EQ(c.index, a.index);
  EXPECT_NE(c.generation, a.generation);
  EXPECT_TRUE(pool.At(c).values.empty());
  pool.At(c).values.push_back(2);
  EXPECT_EQ(pool.At(c).values.data(), storage);
  EXPECT_THROW(pool.At(a), util::Error);
  pool.Free(b);
  pool.Free(c);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 2u);  // peak concurrency, not allocations
}

}  // namespace
}  // namespace voodb::desp
