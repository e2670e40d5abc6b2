/**
 * @file
 * Unit tests for the cache array: install/evict/invalidate/restore,
 * speculative marking, occupancy invariants, and
 * the touched-set reset.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "memory/cache.hh"
#include "sim/audit.hh"

namespace unxpec {
namespace {

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 4 * 1024; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.hitLatency = 2;
    cfg.mshrs = 4;
    cfg.repl = ReplPolicy::LRU;
    return cfg;
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : rng_(1), cache_(smallConfig(), rng_, 0) {}

    Rng rng_;
    Cache cache_;
};

TEST_F(CacheTest, MissThenHit)
{
    const Addr line = 0x4000;
    EXPECT_EQ(cache_.probe(line), nullptr);
    cache_.install(line, 5, false, kSeqNone);
    ASSERT_NE(cache_.probe(line), nullptr);
    EXPECT_TRUE(cache_.present(line, 5));
    EXPECT_FALSE(cache_.present(line, 4)); // fill not landed yet
}

TEST_F(CacheTest, InstallPrefersInvalidWays)
{
    // 3 lines in the same set: no evictions while ways remain.
    const unsigned sets = cache_.config().numSets();
    for (unsigned i = 0; i < 3; ++i) {
        const FillResult fill =
            cache_.install((0x4000 + i * sets * kLineBytes), 0, false,
                           kSeqNone);
        EXPECT_FALSE(fill.victimValid);
    }
    EXPECT_EQ(cache_.setOccupancy(cache_.setOf(0x4000)), 3u);
}

TEST_F(CacheTest, FullSetEvictsAndReportsVictim)
{
    const unsigned sets = cache_.config().numSets();
    for (unsigned i = 0; i < 4; ++i)
        cache_.install(0x4000 + i * sets * kLineBytes, 0, false, kSeqNone);
    const FillResult fill =
        cache_.install(0x4000 + 4ull * sets * kLineBytes, 0, false,
                       kSeqNone);
    EXPECT_TRUE(fill.victimValid);
    EXPECT_EQ(cache_.setOccupancy(cache_.setOf(0x4000)), 4u);
    // The victim is gone.
    EXPECT_EQ(cache_.probe(fill.victimLine), nullptr);
}

TEST_F(CacheTest, LruVictimSelection)
{
    const unsigned sets = cache_.config().numSets();
    const Addr base = 0x4000;
    for (unsigned i = 0; i < 4; ++i)
        cache_.install(base + i * sets * kLineBytes, 0, false, kSeqNone);
    cache_.touch(base); // protect the oldest
    const FillResult fill =
        cache_.install(base + 4ull * sets * kLineBytes, 0, false, kSeqNone);
    EXPECT_EQ(fill.victimLine, base + 1ull * sets * kLineBytes);
}

TEST_F(CacheTest, InvalidateRemovesLine)
{
    cache_.install(0x4000, 0, false, kSeqNone);
    EXPECT_TRUE(cache_.invalidate(0x4000));
    EXPECT_EQ(cache_.probe(0x4000), nullptr);
    EXPECT_FALSE(cache_.invalidate(0x4000));
}

TEST_F(CacheTest, InvalidateAtChecksAddress)
{
    const FillResult fill = cache_.install(0x4000, 0, false, kSeqNone);
    // Wrong line: refused.
    EXPECT_FALSE(cache_.invalidateAt(fill.set, fill.way, 0x8000));
    EXPECT_TRUE(cache_.invalidateAt(fill.set, fill.way, 0x4000));
}

TEST_F(CacheTest, InstallAtPlacesLineInExactWay)
{
    const FillResult fill = cache_.install(0x4000, 0, true, 9);
    cache_.invalidateAt(fill.set, fill.way, 0x4000);
    cache_.installAt(fill.set, fill.way, 0x8000, true, 3);
    const CacheLine *line = cache_.probe(0x8000);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(line->speculative);
}

TEST_F(CacheTest, SpeculativeMarkingAndCommit)
{
    cache_.install(0x4000, 0, true, 42);
    const CacheLine *line = cache_.probe(0x4000);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->speculative);
    EXPECT_EQ(line->installer, 42u);

    // Commit by a different installer is ignored.
    cache_.commitSpeculative(0x4000, 41);
    EXPECT_TRUE(cache_.probe(0x4000)->speculative);

    cache_.commitSpeculative(0x4000, 42);
    EXPECT_FALSE(cache_.probe(0x4000)->speculative);
    // A committed line keeps no installer (0, the empty line's value).
    EXPECT_EQ(cache_.probe(0x4000)->installer, 0u);
}

TEST_F(CacheTest, MarkDirty)
{
    cache_.install(0x4000, 0, false, kSeqNone);
    EXPECT_FALSE(cache_.probe(0x4000)->dirty);
    cache_.markDirty(0x4000);
    EXPECT_TRUE(cache_.probe(0x4000)->dirty);
}

TEST_F(CacheTest, ResidentLinesSorted)
{
    cache_.install(0x8000, 0, false, kSeqNone);
    cache_.install(0x4000, 0, false, kSeqNone);
    const auto resident = cache_.residentLines();
    ASSERT_EQ(resident.size(), 2u);
    EXPECT_EQ(resident[0], 0x4000u);
    EXPECT_EQ(resident[1], 0x8000u);
}

TEST_F(CacheTest, ResetEmptiesCache)
{
    cache_.install(0x4000, 0, false, kSeqNone);
    cache_.mshr().allocate(0x4000, 10, false, 0);
    cache_.reset();
    EXPECT_TRUE(cache_.residentLines().empty());
    EXPECT_EQ(cache_.mshr().inflight(), 0u);
}

TEST(CacheRandomTest, RandomPolicyEvictsVariedWays)
{
    CacheConfig cfg = smallConfig();
    cfg.repl = ReplPolicy::Random;
    Rng rng(3);
    Cache cache(cfg, rng, 0);
    const unsigned sets = cfg.numSets();
    for (unsigned i = 0; i < 4; ++i)
        cache.install(0x4000 + i * sets * kLineBytes, 0, false, kSeqNone);
    std::set<unsigned> victim_ways;
    for (unsigned i = 4; i < 40; ++i) {
        const FillResult fill =
            cache.install(0x4000 + i * sets * kLineBytes, 0, false,
                          kSeqNone);
        EXPECT_TRUE(fill.victimValid);
        victim_ways.insert(fill.way);
    }
    EXPECT_GT(victim_ways.size(), 2u);
}

TEST(CacheStatsTest, HitsAndMissesCounted)
{
    Rng rng(4);
    Cache cache(smallConfig(), rng, 0);
    ++cache.misses();
    cache.install(0x4000, 0, false, kSeqNone);
    ++cache.hits();
    EXPECT_EQ(cache.stats().findCounter("hits")->value(), 1u);
    EXPECT_EQ(cache.stats().findCounter("misses")->value(), 1u);
}

/**
 * Drive `cache` with `steps` random install/installAt/invalidate/touch
 * operations drawn from `ops`, recording every observable outcome
 * (fill placement and victims, hits, invalidations) in `trace`. The
 * mix is unconstrained (it may install a resident line twice), so it
 * exercises writes the cache's own callers never make.
 */
void
randomMix(Cache &cache, Rng &ops, unsigned steps,
          std::vector<std::uint64_t> &trace)
{
    const CacheConfig &cfg = cache.config();
    const std::uint64_t lines =
        static_cast<std::uint64_t>(cfg.numSets()) * cfg.ways * 3;
    for (unsigned i = 0; i < steps; ++i) {
        const Addr line = ops.range(lines) * kLineBytes;
        switch (ops.range(4)) {
          case 0: {
            const FillResult fill =
                cache.install(line, ops.range(50), ops.chance(0.5),
                              ops.range(100));
            trace.insert(trace.end(), {fill.set, fill.way, fill.victimLine,
                                       fill.victimValid});
            break;
          }
          case 1:
            cache.installAt(cache.setOf(line),
                            static_cast<unsigned>(ops.range(cfg.ways)),
                            line, ops.chance(0.5), ops.range(50));
            break;
          case 2:
            trace.push_back(cache.invalidate(line));
            break;
          default:
            trace.push_back(cache.probe(line) != nullptr);
            cache.touch(line);
            break;
        }
    }
    for (const Addr resident : cache.residentLines())
        trace.push_back(resident);
}

/** After a random history, reseed(k) must leave the cache equal to a
 *  freshly constructed Cache(cfg, k): by full scan, and by behaving
 *  identically under the same later history. */
void
expectReseedMatchesFresh(const CacheConfig &cfg)
{
    Rng used_rng(11);
    Cache used(cfg, used_rng, 3);
    Rng history(42);
    std::vector<std::uint64_t> ignored;
    randomMix(used, history, 4000, ignored);
    used.mshr().allocate(0x4000, 100, true, 7);

    const std::uint64_t key = 99;
    used.reseed(key);
    EXPECT_NO_THROW(used.auditFresh(0)) << cfg.name;

    used_rng.seed(5);
    Rng fresh_rng(5);
    Cache fresh(cfg, fresh_rng, key);
    Rng ops_a(7);
    Rng ops_b(7);
    std::vector<std::uint64_t> trace_used;
    std::vector<std::uint64_t> trace_fresh;
    randomMix(used, ops_a, 4000, trace_used);
    randomMix(fresh, ops_b, 4000, trace_fresh);
    EXPECT_EQ(trace_used, trace_fresh) << cfg.name;
}

TEST(CacheResetTest, ReseedMatchesFreshUnderLru)
{
    CacheConfig cfg = smallConfig();
    cfg.name = "lru";
    expectReseedMatchesFresh(cfg);
}

TEST(CacheResetTest, ReseedMatchesFreshUnderRandom)
{
    CacheConfig cfg = smallConfig();
    cfg.name = "random";
    cfg.repl = ReplPolicy::Random;
    expectReseedMatchesFresh(cfg);
}

TEST(CacheResetTest, ReseedClearsSetsOnlyInstallAtWrote)
{
    Rng rng(2);
    Cache cache(smallConfig(), rng, 0);
    cache.install(0x4000, 0, false, kSeqNone);
    const unsigned other = cache.setOf(0x4000) + 1;
    cache.installAt(other, 2, 0x4000 + kLineBytes, true, 0);
    ASSERT_EQ(cache.setOf(0x4000 + kLineBytes), other);
    cache.reseed(1);
    EXPECT_TRUE(cache.residentLines().empty());
    EXPECT_NO_THROW(cache.auditFresh(0));
}

TEST(CacheResetTest, ResetLeavesNoLineBehind)
{
    Rng rng(2);
    Cache cache(smallConfig(), rng, 0);
    Rng history(3);
    std::vector<std::uint64_t> ignored;
    randomMix(cache, history, 500, ignored);
    ASSERT_FALSE(cache.residentLines().empty());
    cache.reset();
    EXPECT_TRUE(cache.residentLines().empty());
    EXPECT_EQ(cache.mshr().inflight(), 0u);
    EXPECT_NO_THROW(cache.auditInvariants(0));
}

} // namespace
} // namespace unxpec
