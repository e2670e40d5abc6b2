/**
 * @file
 * Tests of the shared bounds-check gadget's data layout: every
 * training round indexes A[0], the final round's index reaches the
 * secret byte, and the f(N) chase ends in the bound 1.
 */

#include <gtest/gtest.h>

#include <string>

#include "attack/gadget.hh"
#include "memory/main_memory.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

TEST(GadgetTest, LayoutTrainsInBoundsAndReachesTheSecret)
{
    for (const unsigned c : {1u, 3u}) {
        for (const unsigned trials : {1u, 17u}) {
            SCOPED_TRACE("c=" + std::to_string(c) +
                         " trials=" + std::to_string(trials));
            ProgramBuilder b;
            const gadget::Layout layout = gadget::allocate(b, c, trials);
            b.halt();
            const Program program = b.build();
            Rng rng;
            MainMemory mem(MemoryConfig{}, rng);
            program.loadInitialData(mem);
            mem.write8(layout.secret, 0xA5);

            for (unsigned t = 0; t + 1 < trials; ++t)
                EXPECT_EQ(mem.read64(layout.idx + 8 * t), 0u);
            const std::uint64_t oob =
                mem.read64(layout.idx + 8 * (trials - 1));
            EXPECT_EQ(mem.read8(layout.a + oob), 0xA5);

            std::uint64_t bound = layout.chain;
            for (unsigned j = 0; j < c; ++j)
                bound = mem.read64(bound);
            EXPECT_EQ(bound, 1u);
        }
    }
}

} // namespace
} // namespace unxpec
