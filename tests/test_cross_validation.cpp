/// \file test_cross_validation.cpp
/// \brief Property sweep of the paper's central claim: the VOODB
/// discrete-event model and the direct-execution emulators agree on the
/// mean number of I/Os across base sizes, architectures and memory
/// budgets — not just at the figures' specific points.
#include <gtest/gtest.h>

#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "emu/texas_emulator.hpp"
#include "ocb/workload.hpp"
#include "voodb/catalog.hpp"
#include "voodb/system.hpp"

namespace voodb {
namespace {

/// The system a case runs.  64 bits wide so that CrossCase has no
/// padding: gtest names a parameter it cannot print by its raw bytes, and
/// uninitialised padding made those names differ from run to run.
enum class Store : uint64_t { kTexas = 0, kO2 = 1 };

struct CrossCase {
  Store store;       // O2 page server vs Texas store
  uint64_t objects;  // base size
  double memory_mb;  // cache / main memory budget
};

std::string CaseName(const ::testing::TestParamInfo<CrossCase>& info) {
  const bool o2 = info.param.store == Store::kO2;
  return std::string(o2 ? "O2" : "Texas") + "_no" +
         std::to_string(info.param.objects) + "_mb" +
         std::to_string(static_cast<int>(info.param.memory_mb));
}

class CrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossValidation, SimulationAgreesWithEmulator) {
  const CrossCase c = GetParam();
  const bool o2 = c.store == Store::kO2;
  ocb::OcbParameters wl;
  wl.num_classes = 20;
  wl.num_objects = c.objects;
  wl.seed = 1999;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  constexpr uint64_t kTransactions = 150;

  double bench = 0.0;
  if (o2) {
    emu::O2Config cfg;
    cfg.cache_pages =
        static_cast<uint64_t>(c.memory_mb * 1024 * 1024 / 4096);
    emu::O2Emulator emu_sys(cfg, &base, 5);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    bench = static_cast<double>(
        emu_sys.RunTransactions(gen, kTransactions).total_ios);
  } else {
    emu::TexasConfig cfg;
    cfg.memory_pages = emu::TexasConfig::FramesForMemory(c.memory_mb, 4096);
    emu::TexasEmulator emu_sys(cfg, &base, 5);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    bench = static_cast<double>(
        emu_sys.RunTransactions(gen, kTransactions).total_ios);
  }

  core::VoodbConfig cfg = o2
                              ? core::SystemCatalog::O2WithCache(c.memory_mb)
                              : core::SystemCatalog::TexasWithMemory(
                                    c.memory_mb);
  core::VoodbSystem sys(cfg, &base, nullptr, 7);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(7));
  const double sim = static_cast<double>(
      sys.RunTransactions(gen, kTransactions).total_ios);

  ASSERT_GT(bench, 0.0);
  // Different workload seeds on the two paths: agreement within 25 %
  // (the paper's own series differ by up to ~10-20 % in places).
  EXPECT_NEAR(sim / bench, 1.0, 0.25)
      << "bench=" << bench << " sim=" << sim;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossValidation,
    ::testing::Values(
        // Bases that fit their memory budget (cold-fault regime).
        CrossCase{Store::kO2, 1000, 16.0},
        CrossCase{Store::kTexas, 1000, 16.0},
        CrossCase{Store::kO2, 3000, 16.0},
        CrossCase{Store::kTexas, 3000, 16.0},
        // Bases that outgrow it (thrashing regime).
        CrossCase{Store::kO2, 4000, 1.0}, CrossCase{Store::kTexas, 4000, 1.0},
        CrossCase{Store::kO2, 4000, 0.5}, CrossCase{Store::kTexas, 4000, 0.5}),
    CaseName);

}  // namespace
}  // namespace voodb
