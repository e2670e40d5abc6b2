/**
 * @file
 * Unit tests for eviction-set construction: direct congruence, and a
 * direct set evicting its target from an LRU cache.
 */

#include <gtest/gtest.h>

#include <set>

#include "attack/eviction_set.hh"
#include "memory/cache.hh"

namespace unxpec {
namespace {

CacheConfig
l1Config(ReplPolicy repl)
{
    CacheConfig cfg;
    cfg.name = "l1d";
    cfg.sizeBytes = 32 * 1024;
    cfg.ways = 8;
    cfg.repl = repl;
    return cfg;
}

TEST(EvictionSetTest, DirectAddressesAreCongruent)
{
    const unsigned sets = 64;
    const Addr target = 0x12340;
    const auto addrs = EvictionSet::direct(target, sets, 8, 0x800000);
    EXPECT_EQ(addrs.size(), 8u);
    const Addr target_set = lineNumber(lineAlign(target)) % sets;
    std::set<Addr> unique;
    for (const Addr addr : addrs) {
        EXPECT_EQ(lineNumber(addr) % sets, target_set);
        EXPECT_NE(lineAlign(addr), lineAlign(target));
        unique.insert(lineAlign(addr));
    }
    EXPECT_EQ(unique.size(), 8u);
}

TEST(EvictionSetTest, DirectAddressesStartAtPool)
{
    const auto addrs = EvictionSet::direct(0x0, 64, 4, 0x800000);
    for (const Addr addr : addrs)
        EXPECT_GE(addr, 0x800000u);
}

TEST(EvictionSetTest, DirectSetEvictsTargetInLruCache)
{
    Rng rng(1);
    Cache cache(l1Config(ReplPolicy::LRU), rng, 0);
    const Addr target = 0x12340;
    cache.install(lineAlign(target), 0, false, kSeqNone);
    const auto addrs = EvictionSet::direct(
        target, cache.config().numSets(), cache.config().ways, 0x800000);
    Cycle when = 1;
    for (const Addr addr : addrs)
        cache.install(lineAlign(addr), when++, false, kSeqNone);
    EXPECT_EQ(cache.probe(lineAlign(target)), nullptr);
}

} // namespace
} // namespace unxpec
