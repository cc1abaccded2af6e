/// \file test_concurrency.cpp
/// \brief End-to-end tests of the lock-manager extension inside the
/// VOODB system (wait-die restarts, serializable-history invariants).
#include <gtest/gtest.h>

#include "desp/random.hpp"
#include "ocb/workload.hpp"
#include "voodb/system.hpp"

namespace voodb::core {
namespace {

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.max_refs_per_class = 3;
  p.base_instance_size = 60;
  p.p_update = 0.5;
  p.root_region = 6;  // hot roots: transactions collide
  p.seed = 111;
  return p;
}

VoodbConfig ContendedConfig() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 128;
  cfg.multiprogramming_level = 8;
  cfg.num_users = 8;
  cfg.use_lock_manager = true;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  return cfg;
}

TEST(Concurrency, ContendedWorkloadCompletesWithRestarts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 120);
  EXPECT_EQ(m.transactions, 120u);
  // Hot-spot write contention with 8 concurrent transactions must
  // produce at least some wait-die aborts.
  EXPECT_GT(m.transaction_restarts, 0u);
  const cc::Protocol* cc = sys.transaction_manager().cc_protocol();
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->stats().aborts_wait_die, m.transaction_restarts);
  EXPECT_GT(cc->stats().requests, 0u);
  // All locks were released at the end.
  EXPECT_EQ(cc->ActiveTransactions(), 0u);
}

TEST(Concurrency, NoContentionMeansNoRestarts) {
  ocb::OcbParameters wl = ContendedWorkload();
  wl.p_update = 0.0;  // read-only: S locks never conflict
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 120);
  EXPECT_EQ(m.transaction_restarts, 0u);
}

TEST(Concurrency, SingleStreamNeverRestarts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.num_users = 1;
  cfg.multiprogramming_level = 1;
  VoodbSystem sys(cfg, &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 60);
  EXPECT_EQ(m.transaction_restarts, 0u);
}

TEST(Concurrency, LockManagerOffMeansNoLockState) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.use_lock_manager = false;
  VoodbSystem sys(cfg, &base, nullptr, 13);
  EXPECT_EQ(sys.transaction_manager().cc_protocol(), nullptr);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  EXPECT_EQ(sys.RunTransactions(gen, 60).transaction_restarts, 0u);
}

TEST(Concurrency, ContentionRaisesResponseTimes) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  auto mean_response = [&](bool locks) {
    VoodbConfig cfg = ContendedConfig();
    cfg.use_lock_manager = locks;
    VoodbSystem sys(cfg, &base, nullptr, 13);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
    return sys.RunTransactions(gen, 120).mean_response_ms;
  };
  // Real blocking + restarts cost more than the fixed-delay model.
  EXPECT_GT(mean_response(true), mean_response(false));
}

TEST(Concurrency, ResponseHistogramTracksPercentiles) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 120);
  const desp::LogHistogram& h =
      sys.transaction_manager().response_histogram();
  EXPECT_EQ(h.count(), 120u);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  EXPECT_GE(h.Quantile(0.5), h.min());
  EXPECT_LE(h.Quantile(0.99), h.max() * 1.05);
}

/// Property sweep: the contended workload terminates for every
/// multiprogramming level (no livelock in wait-die + backoff).
class ConcurrencyLevels : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ConcurrencyLevels, AlwaysTerminates) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.multiprogramming_level = GetParam();
  cfg.num_users = GetParam();
  VoodbSystem sys(cfg, &base, nullptr, 17);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(17));
  const PhaseMetrics m = sys.RunTransactions(gen, 80);
  EXPECT_EQ(m.transactions, 80u);
}

INSTANTIATE_TEST_SUITE_P(Levels, ConcurrencyLevels,
                         ::testing::Values(2u, 4u, 8u, 16u));

}  // namespace
}  // namespace voodb::core
