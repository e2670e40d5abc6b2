/**
 * @file
 * Unit tests for ReplacementState: LRU and Random replacement.
 */

#include <gtest/gtest.h>

#include <set>

#include "memory/replacement.hh"

namespace unxpec {
namespace {

/** An LRU state; the Rng is unused by LRU but must outlive the state. */
struct Lru
{
    Lru(unsigned sets, unsigned ways)
        : state(ReplPolicy::LRU, sets, ways, rng)
    {
    }

    Rng rng{0};
    ReplacementState state;
};

TEST(LruTest, EvictsLeastRecentlyUsed)
{
    Lru lru(4, 4);
    for (unsigned way = 0; way < 4; ++way)
        lru.state.fill(0, way);
    lru.state.touch(0, 0); // way 1 becomes the oldest
    EXPECT_EQ(lru.state.victim(0), 1u);
}

TEST(LruTest, FillCountsAsUse)
{
    Lru lru(1, 3);
    lru.state.fill(0, 0);
    lru.state.fill(0, 1);
    lru.state.fill(0, 2);
    lru.state.fill(0, 0); // refreshed
    EXPECT_EQ(lru.state.victim(0), 1u);
}

TEST(LruTest, SetsAreIndependent)
{
    Lru lru(2, 2);
    lru.state.fill(0, 0);
    lru.state.fill(0, 1);
    lru.state.fill(1, 1);
    lru.state.fill(1, 0);
    EXPECT_EQ(lru.state.victim(0), 0u);
    EXPECT_EQ(lru.state.victim(1), 1u);
}

TEST(LruTest, ClearRowsAndRestartClockForgetHistory)
{
    Lru lru(2, 4);
    lru.state.fill(0, 0);
    lru.state.fill(0, 1);
    lru.state.fill(1, 2);
    lru.state.clearRows(0, 1);
    lru.state.restartClock();
    EXPECT_EQ(lru.state.auditTick(), 0u);
    EXPECT_EQ(lru.state.auditStamp(0, 1), 0u);
    // All stamps of row 0 tie at zero again: the lowest way wins.
    // Row 1 keeps its history.
    EXPECT_EQ(lru.state.victim(0), 0u);
    EXPECT_EQ(lru.state.auditStamp(1, 2), 3u);
}

TEST(RandomTest, DrawsEqualRngRangeOverEveryWay)
{
    // Each eviction is exactly one Rng::range(ways) draw, so a seeded
    // run's victim sequence is the Rng's own sequence.
    Rng rng(1);
    Rng expected(1);
    ReplacementState random(ReplPolicy::Random, 2, 8, rng);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(random.victim(i % 2), expected.range(8)) << "draw " << i;
}

TEST(RandomTest, CoversAllWays)
{
    Rng rng(2);
    ReplacementState random(ReplPolicy::Random, 1, 8, rng);
    std::set<unsigned> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(random.victim(0));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, RoughlyUniform)
{
    Rng rng(3);
    ReplacementState random(ReplPolicy::Random, 1, 4, rng);
    unsigned counts[4] = {0, 0, 0, 0};
    const int trials = 8000;
    for (int i = 0; i < trials; ++i)
        ++counts[random.victim(0)];
    for (const unsigned count : counts)
        EXPECT_NEAR(count, trials / 4.0, trials * 0.05);
}

} // namespace
} // namespace unxpec
