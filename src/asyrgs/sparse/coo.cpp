#include "asyrgs/sparse/coo.hpp"

#include <limits>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace asyrgs {

namespace {

/// Bytes of physical memory on the machine, or the largest size when the
/// platform does not report it.  This is the machine's RAM, not the
/// process's limit: a container or cgroup memory limit below it is not
/// seen.
std::size_t physical_memory_bytes() {
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page > 0)
    return static_cast<std::size_t>(pages) * static_cast<std::size_t>(page);
#endif
  return std::numeric_limits<std::size_t>::max();
}

}  // namespace

CooBuilder::CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  require(rows > 0 && cols > 0, "CooBuilder: dimensions must be positive");
  // to_csr holds kRowOffsetArrays arrays of rows + 1 offsets at once,
  // whatever the entry count.  A row count whose arrays exceed physical
  // memory cannot be built: refuse it here, before anything sized by it is
  // allocated, rather than fail inside the allocator (std::bad_alloc, or
  // the abort of a sanitizer's allocator).  The bound also keeps every
  // array below vector::max_size.  A process limited below physical memory
  // can still be killed for a count that passes.
  require(static_cast<std::size_t>(rows) <
              physical_memory_bytes() / (kRowOffsetArrays * sizeof(nnz_t)),
          "CooBuilder: row count needs more memory than the machine has");
}

}  // namespace asyrgs
