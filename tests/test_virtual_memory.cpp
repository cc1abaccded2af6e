/// \file test_virtual_memory.cpp
/// \brief Tests for the Texas OS virtual-memory model.
#include <gtest/gtest.h>

#include "storage/virtual_memory.hpp"
#include "util/check.hpp"

namespace voodb::storage {
namespace {

VmParameters Params(uint64_t frames, bool dirty_on_load = true,
                    bool hot = false) {
  VmParameters p;
  p.memory_pages = frames;
  p.dirty_on_load = dirty_on_load;
  p.reservations_enter_hot = hot;
  return p;
}

/// One access's result, collected through the append-only API.
struct Outcome {
  bool hit = false;
  std::vector<PageIo> ios;
};

Outcome Touch(VirtualMemoryModel& vm, PageId page, bool write) {
  Outcome outcome;
  outcome.hit = vm.TouchInto(page, write, outcome.ios);
  return outcome;
}

std::vector<PageIo> Reserve(VirtualMemoryModel& vm, PageId page) {
  std::vector<PageIo> ios;
  vm.ReserveInto(page, ios);
  return ios;
}

uint64_t Writes(const std::vector<PageIo>& ios) {
  uint64_t n = 0;
  for (const auto& io : ios) n += io.kind == PageIo::Kind::kWrite ? 1 : 0;
  return n;
}

TEST(VirtualMemory, FaultReadsThenHits) {
  VirtualMemoryModel vm(Params(4));
  const Outcome fault = Touch(vm, 3, false);
  EXPECT_FALSE(fault.hit);
  ASSERT_EQ(fault.ios.size(), 1u);
  EXPECT_EQ(fault.ios[0].kind, PageIo::Kind::kRead);
  const Outcome hit = Touch(vm, 3, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.ios.empty());
  EXPECT_EQ(vm.stats().faults, 1u);
  EXPECT_EQ(vm.stats().soft_hits, 1u);
}

TEST(VirtualMemory, DirtyOnLoadMakesEvictionsSwap) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/true));
  Touch(vm, 1, false);
  Touch(vm, 2, false);
  const Outcome out = Touch(vm, 3, false);  // evicts page 1
  EXPECT_EQ(Writes(out.ios), 1u);  // swizzled page swaps out
  EXPECT_EQ(vm.stats().swap_writes, 1u);
}

TEST(VirtualMemory, CleanModeEvictsSilently) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  Touch(vm, 1, false);
  Touch(vm, 2, false);
  const Outcome out = Touch(vm, 3, false);
  EXPECT_EQ(Writes(out.ios), 0u);
}

TEST(VirtualMemory, ExplicitWriteDirtiesEvenWithoutSwizzle) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  Touch(vm, 1, true);  // store into the page
  Touch(vm, 2, false);
  const Outcome out = Touch(vm, 3, false);
  EXPECT_EQ(Writes(out.ios), 1u);
}

TEST(VirtualMemory, ReserveAllocatesFrameWithoutRead) {
  VirtualMemoryModel vm(Params(4));
  const std::vector<PageIo> ios = Reserve(vm, 9);
  EXPECT_TRUE(ios.empty());
  EXPECT_EQ(vm.resident_frames(), 1u);
  EXPECT_FALSE(vm.IsLoaded(9));  // reserved, not loaded
  EXPECT_EQ(vm.stats().reservations, 1u);
  // Re-reserving is a no-op.
  Reserve(vm, 9);
  EXPECT_EQ(vm.stats().reservations, 1u);
}

TEST(VirtualMemory, TouchingReservedPageStillReads) {
  VirtualMemoryModel vm(Params(4));
  Reserve(vm, 9);
  const Outcome out = Touch(vm, 9, false);
  EXPECT_FALSE(out.hit);  // contents were never loaded
  ASSERT_EQ(out.ios.size(), 1u);
  EXPECT_EQ(out.ios[0].kind, PageIo::Kind::kRead);
  EXPECT_TRUE(vm.IsLoaded(9));
  EXPECT_EQ(vm.resident_frames(), 1u);  // frame was reused
}

TEST(VirtualMemory, ReservedEvictionCostsNothing) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/true,
                               /*hot=*/false));
  Reserve(vm, 1);
  Reserve(vm, 2);
  const std::vector<PageIo> ios = Reserve(vm, 3);  // evicts a reservation
  EXPECT_TRUE(ios.empty());
  EXPECT_EQ(vm.stats().reserved_evictions, 1u);
}

TEST(VirtualMemory, ColdReservationsSelfCannibalize) {
  // With cold insertion (default), reservations evict the LRU end where
  // earlier reservations sit, sparing loaded pages.
  VirtualMemoryModel vm(Params(3, true, /*hot=*/false));
  Touch(vm, 1, false);
  Touch(vm, 2, false);
  Reserve(vm, 10);
  Reserve(vm, 11);  // evicts reservation 10, not pages 1/2
  EXPECT_TRUE(vm.IsLoaded(1));
  EXPECT_TRUE(vm.IsLoaded(2));
  EXPECT_EQ(vm.stats().reserved_evictions, 1u);
}

TEST(VirtualMemory, HotReservationsEvictLoadedPages) {
  // With MRU insertion (Linux 2.0 pathology), reservations push loaded
  // pages out — the mechanism behind Figure 11's exponential swap.
  VirtualMemoryModel vm(Params(3, true, /*hot=*/true));
  Touch(vm, 1, false);
  Touch(vm, 2, false);
  Touch(vm, 3, false);
  const std::vector<PageIo> ios = Reserve(vm, 10);  // evicts page 1 (dirty)
  EXPECT_EQ(Writes(ios), 1u);
  EXPECT_FALSE(vm.IsLoaded(1));
}

TEST(VirtualMemory, ResizeEvictsDown) {
  VirtualMemoryModel vm(Params(8));
  for (PageId p = 0; p < 8; ++p) Touch(vm, p, false);
  const std::vector<PageIo> ios = vm.Resize(3);
  EXPECT_EQ(vm.resident_frames(), 3u);
  EXPECT_EQ(Writes(ios), 5u);  // dirty-on-load pages swap out
}

TEST(VirtualMemory, DropAllForgetsEverything) {
  VirtualMemoryModel vm(Params(8));
  Touch(vm, 1, false);
  Reserve(vm, 2);
  vm.DropAll();
  EXPECT_EQ(vm.resident_frames(), 0u);
  EXPECT_FALSE(vm.IsLoaded(1));
}

TEST(VirtualMemory, LruOrderRespectedForLoadedPages) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  Touch(vm, 1, false);
  Touch(vm, 2, false);
  Touch(vm, 1, false);  // 1 is MRU
  Touch(vm, 3, false);  // evicts 2
  EXPECT_TRUE(vm.IsLoaded(1));
  EXPECT_FALSE(vm.IsLoaded(2));
}

TEST(VirtualMemory, StatsAccounting) {
  VirtualMemoryModel vm(Params(4));
  for (PageId p = 0; p < 6; ++p) Touch(vm, p, false);
  Touch(vm, 5, false);
  const VmStats& s = vm.stats();
  EXPECT_EQ(s.touches, 7u);
  EXPECT_EQ(s.faults, 6u);
  EXPECT_EQ(s.soft_hits, 1u);
  EXPECT_EQ(s.reads, s.faults);
}

TEST(VirtualMemory, RejectsZeroFrames) {
  EXPECT_THROW(VirtualMemoryModel(Params(0)), util::Error);
  VirtualMemoryModel vm(Params(4));
  EXPECT_THROW(vm.Resize(0), util::Error);
}

}  // namespace
}  // namespace voodb::storage
