/**
 * @file
 * Unit tests for the direction predictor, including the mistraining
 * behaviour the attack depends on.
 */

#include <gtest/gtest.h>

#include "cpu/branch_predictor.hh"

namespace unxpec {
namespace {

TEST(BimodalTest, StartsWeaklyNotTaken)
{
    BimodalPredictor bp;
    EXPECT_FALSE(bp.predict(0x10));
}

TEST(BimodalTest, SaturatesTaken)
{
    BimodalPredictor bp;
    for (int i = 0; i < 4; ++i)
        bp.update(0x10, true);
    EXPECT_TRUE(bp.predict(0x10));
    // One contrary outcome does not flip a saturated counter.
    bp.update(0x10, false);
    EXPECT_TRUE(bp.predict(0x10));
}

TEST(BimodalTest, MistrainingScenario)
{
    // The unXpec POISON phase: repeated not-taken outcomes keep the
    // out-of-bounds round predicted not-taken (i.e., into the branch
    // body), even right after one taken resolution.
    BimodalPredictor bp;
    for (int i = 0; i < 8; ++i)
        bp.update(0x40, false);
    EXPECT_FALSE(bp.predict(0x40));
    bp.update(0x40, true); // the mis-speculated attack round resolves
    EXPECT_FALSE(bp.predict(0x40));
}

TEST(BimodalTest, DistinctPcsIndependent)
{
    BimodalPredictor bp;
    for (int i = 0; i < 4; ++i)
        bp.update(0x10, true);
    EXPECT_TRUE(bp.predict(0x10));
    EXPECT_FALSE(bp.predict(0x11));
}

TEST(BimodalTest, ResetForgets)
{
    BimodalPredictor bp;
    for (int i = 0; i < 4; ++i)
        bp.update(0x10, true);
    bp.reset();
    EXPECT_FALSE(bp.predict(0x10));
}

} // namespace
} // namespace unxpec
