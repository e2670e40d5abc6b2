/**
 * @file
 * Footprint guard: building a Machine must not fault in its cache
 * arrays. The per-way arrays are ZeroArrays whose empty state is zero
 * bytes, so a build maps no page of a set until a fill writes it; 16
 * Table-I 1-core Machines (a 2 MB 16-way L2 each, ~1.1 MB of L2 arrays
 * at 24-byte lines) must raise the peak resident set by less than 8 MB.
 * Zero-filled arrays made the same 16 builds cost ~30 MB.
 *
 * The test must run first in its own process: ru_maxrss is the
 * process's peak, and a larger earlier peak would hide the growth.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "sim/config.hh"

namespace unxpec {
namespace {

/** Peak resident set of this process so far, in KiB. */
long
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(Footprint, SixteenTableIMachinesStayUnderEightMegabytes)
{
    constexpr long kBoundKib = 8 * 1024;
    const SystemConfig cfg = SystemConfig::makeDefault();
    ASSERT_EQ(cfg.numCores, 1u);
    ASSERT_EQ(cfg.l2.sizeBytes, 2u * 1024 * 1024);

    const long before = peakRssKib();
    std::vector<std::unique_ptr<Machine>> machines;
    for (unsigned i = 0; i < 16; ++i) {
        SystemConfig one = cfg;
        one.seed = cfg.seed + i;
        machines.push_back(std::make_unique<Machine>(one));
    }
    const long grown = peakRssKib() - before;
    EXPECT_LT(grown, kBoundKib)
        << "16 Table-I Machines raised the peak RSS by " << grown
        << " KiB; their cache arrays were faulted in at build";
}

} // namespace
} // namespace unxpec
