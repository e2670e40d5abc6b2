/**
 * @file
 * Heap-allocation counting hook for zero-alloc steady-state tests.
 * The companion library (alloc_gauge.cc, built as `unxpec_alloc_gauge`
 * and linked ONLY into tests that count allocations) replaces the
 * global operator new/delete family with thin wrappers that bump
 * thread-local counters around std::malloc/std::free. Production
 * binaries and benchmarks never link it, so the hook cannot perturb
 * measured throughput.
 *
 * Usage (tests/core_reset_test.cc):
 *
 *   const AllocStats before = allocGaugeRead();
 *   ... steady-state window under test ...
 *   const AllocStats after = allocGaugeRead();
 *   EXPECT_EQ(after.allocs - before.allocs, 0u);
 *
 * Counters are thread-local: a worker thread observes only its own
 * allocations, so a gauged trial body is immune to other workers.
 */

#ifndef UNXPEC_SIM_ALLOC_GAUGE_HH
#define UNXPEC_SIM_ALLOC_GAUGE_HH

#include <cstdint>

namespace unxpec {

/** Snapshot of this thread's allocation counters. */
struct AllocStats
{
    std::uint64_t allocs = 0; //!< operator new calls (all variants)
    std::uint64_t frees = 0;  //!< operator delete calls (all variants)
    std::uint64_t bytes = 0;  //!< total bytes requested from new
};

/** Current thread's counters (monotonic since thread start). */
AllocStats allocGaugeRead();

} // namespace unxpec

#endif // UNXPEC_SIM_ALLOC_GAUGE_HH
