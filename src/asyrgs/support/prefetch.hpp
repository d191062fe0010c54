// Software prefetch of array spans (internal).
//
// The update kernels (core/kernels.hpp) and the reverse Cuthill-McKee
// search (gen/partition.cpp) walk rows in an order they know ahead — a
// direction buffer, a breadth-first queue — and stage the loads of each
// upcoming row: its header first, then, once that is in cache, its body.
// A prefetch never faults, but no address here leaves the array it names.
#pragma once

#include <algorithm>

#include "asyrgs/support/common.hpp"

namespace asyrgs::detail {

/// Prefetches the first two cache lines of p[lo, hi) and no address past
/// p[hi - 1]: a short row fits in them, and the hardware prefetcher streams
/// the rest of a long one once its first lines are read.
template <class T>
inline void prefetch_span(const T* p, nnz_t lo, nnz_t hi) noexcept {
  if (hi <= lo) return;
  constexpr nnz_t kLine = static_cast<nnz_t>(kCacheLineBytes / sizeof(T));
  __builtin_prefetch(p + lo);
  __builtin_prefetch(p + std::min(lo + kLine, hi - 1));
}

}  // namespace asyrgs::detail
