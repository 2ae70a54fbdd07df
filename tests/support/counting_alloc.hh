// Counting global allocator for the allocation-free gates. Linking
// tests/support/counting_alloc.cc into a binary replaces every form of the
// global operator new (plain, array, aligned, nothrow) with a malloc-backed
// one that bumps one process-wide counter, and every operator delete with
// free(), so no block crosses allocators. Only the measured loops should be
// bracketed: gtest and google-benchmark allocate too.
#ifndef QOSRM_TESTS_SUPPORT_COUNTING_ALLOC_HH
#define QOSRM_TESTS_SUPPORT_COUNTING_ALLOC_HH

#include <cstdint>

namespace qosrm::testing {

/// Calls to operator new (any form) in this process so far.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_COUNTING_ALLOC_HH
