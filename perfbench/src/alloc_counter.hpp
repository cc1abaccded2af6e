/// \file alloc_counter.hpp
/// \brief Heap allocations counted by a replacement global operator new.
///
/// The replacement is compiled into the benchmark binaries only
/// (alloc_counter.cpp), never into a library, so the simulator itself is
/// unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since the process started.
uint64_t AllocationCount();

}  // namespace perfbench
