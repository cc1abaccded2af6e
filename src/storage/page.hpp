/// \file page.hpp
/// \brief Page identifiers and page-level I/O records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/span.hpp"

namespace voodb::storage {

/// Identifies a disk page (0-based, dense within a database).
using PageId = uint64_t;

/// Sentinel for "no page".
inline constexpr PageId kNullPage = static_cast<PageId>(-1);

/// A non-owning view over a contiguous run of page ids (one CSR row of a
/// page-adjacency index).
using PageIdSpan = util::IdSpan<PageId>;

/// One physical I/O operation produced by the buffering layer and consumed
/// by the I/O subsystem (which assigns it a duration via the disk model).
struct PageIo {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  PageId page = kNullPage;
};

}  // namespace voodb::storage
