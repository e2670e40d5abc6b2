/**
 * @file
 * The empty state of a cache is all-zero bytes: a freshly built cache
 * and a used-then-reset cache must agree field by field (tags, lines,
 * LRU stamps, row table, touched-set list, MSHRs) in the Table-I L1
 * and L2 geometries under every replacement and index policy, and the
 * zero-means-empty tag encoding must never alias a real line, not
 * even line address 0 or the highest line address.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "memory/cache.hh"
#include "sim/config.hh"

namespace unxpec {

/** Read access to a cache's private arrays (friend of Cache). */
struct AuditTap
{
    static const ZeroArray<Addr> &tags(const Cache &c) { return c.tags_; }
    static const ZeroArray<CacheLine> &
    lines(const Cache &c)
    {
        return c.lines_;
    }
    static const std::vector<unsigned> &
    touchedSets(const Cache &c)
    {
        return c.touchedSets_;
    }
    static const ZeroArray<std::uint32_t> &
    rowOf(const Cache &c)
    {
        return c.rowOf_;
    }
    static const ReplacementState &repl(const Cache &c) { return c.repl_; }
};

namespace {

constexpr Addr kHighestLine = lineAlign(kAddrInvalid);

/** Expect every private array of `a` and `b` to hold the same values
 *  (and the LRU clock too, when `with_clock`). */
void
expectSameState(const Cache &a, const Cache &b, const std::string &what,
                bool with_clock)
{
    SCOPED_TRACE(what);
    const unsigned ways = a.config().ways;
    ASSERT_EQ(AuditTap::tags(a).size(), AuditTap::tags(b).size());
    ASSERT_EQ(AuditTap::rowOf(a).size(), AuditTap::rowOf(b).size());
    std::size_t tag_diffs = 0;
    std::size_t line_diffs = 0;
    std::size_t stamp_diffs = 0;
    std::size_t row_diffs = 0;
    for (std::size_t idx = 0; idx < AuditTap::tags(a).size(); ++idx) {
        const auto row = static_cast<unsigned>(idx / ways);
        const auto way = static_cast<unsigned>(idx % ways);
        tag_diffs += AuditTap::tags(a)[idx] != AuditTap::tags(b)[idx];
        line_diffs += !(AuditTap::lines(a)[idx] == AuditTap::lines(b)[idx]);
        stamp_diffs += AuditTap::repl(a).auditStamp(row, way) !=
                       AuditTap::repl(b).auditStamp(row, way);
    }
    for (std::size_t set = 0; set < AuditTap::rowOf(a).size(); ++set)
        row_diffs += AuditTap::rowOf(a)[set] != AuditTap::rowOf(b)[set];
    EXPECT_EQ(tag_diffs, 0u);
    EXPECT_EQ(line_diffs, 0u);
    EXPECT_EQ(stamp_diffs, 0u);
    EXPECT_EQ(row_diffs, 0u);
    if (with_clock) {
        EXPECT_EQ(AuditTap::repl(a).auditTick(),
                  AuditTap::repl(b).auditTick());
    }
    EXPECT_EQ(AuditTap::touchedSets(a), AuditTap::touchedSets(b));

    const std::vector<MshrEntry> &ma = a.mshr().entries();
    const std::vector<MshrEntry> &mb = b.mshr().entries();
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma[i].lineAddr, mb[i].lineAddr);
        EXPECT_EQ(ma[i].readyCycle, mb[i].readyCycle);
        EXPECT_EQ(ma[i].speculative, mb[i].speculative);
        EXPECT_EQ(ma[i].installer, mb[i].installer);
        EXPECT_EQ(ma[i].targets, mb[i].targets);
        EXPECT_EQ(ma[i].victimLine, mb[i].victimLine);
        EXPECT_EQ(ma[i].victimValid, mb[i].victimValid);
        EXPECT_EQ(ma[i].victimDirty, mb[i].victimDirty);
    }
}

/**
 * Write every kind of state a trial leaves: speculative and committed
 * fills, evictions, restores into a chosen way, invalidations, dirty
 * lines, hits that move LRU stamps, and outstanding misses, spread over
 * the whole address range including its two ends.
 */
void
dirty(Cache &cache)
{
    const CacheConfig &cfg = cache.config();
    Rng ops(17);
    const std::uint64_t lines =
        static_cast<std::uint64_t>(cfg.numSets()) * cfg.ways * 3;
    for (unsigned i = 0; i < 3000; ++i) {
        const Addr line = ops.range(lines) * kLineBytes +
                          (ops.chance(0.5) ? 0 : Addr{1} << 63);
        switch (ops.range(5)) {
          case 0:
            cache.install(line, ops.range(50), ops.chance(0.5),
                          1 + ops.range(100));
            break;
          case 1:
            cache.installAt(cache.setOf(line),
                            static_cast<unsigned>(ops.range(cfg.ways)),
                            line, ops.chance(0.5), ops.range(50));
            break;
          case 2:
            cache.invalidate(line);
            break;
          case 3:
            cache.markDirty(line);
            break;
          default:
            cache.touch(line);
            break;
        }
    }
    cache.install(0, 3, true, 9);
    cache.install(kHighestLine, 4, false, kSeqNone);
    cache.mshr().allocate(0x4000, 100, true, 7);
    cache.mshr().allocate(kHighestLine, 120, false, kSeqNone);
}

/** Table-I L1D and L2 under each replacement x index policy pair. */
std::vector<CacheConfig>
geometries()
{
    const SystemConfig table1 = SystemConfig::makeDefault();
    std::vector<CacheConfig> out;
    for (const CacheConfig &base : {table1.l1d, table1.l2}) {
        for (const ReplPolicy repl : {ReplPolicy::LRU, ReplPolicy::Random}) {
            for (const IndexPolicy index :
                 {IndexPolicy::Modulo, IndexPolicy::Ceaser}) {
                CacheConfig cfg = base;
                cfg.repl = repl;
                cfg.index = index;
                cfg.name = base.name +
                           (repl == ReplPolicy::LRU ? "/lru" : "/random") +
                           (index == IndexPolicy::Modulo ? "/modulo"
                                                         : "/ceaser");
                out.push_back(cfg);
            }
        }
    }
    return out;
}

TEST(CacheFresh, UsedThenResetEqualsFreshlyBuilt)
{
    for (const CacheConfig &cfg : geometries()) {
        Rng fresh_rng(5);
        const Cache fresh(cfg, fresh_rng, 99);

        Rng used_rng(5);
        Cache used(cfg, used_rng, 99);
        dirty(used);
        ASSERT_FALSE(used.residentLines().empty()) << cfg.name;
        // reset() empties the arrays; only reseed() also restarts the
        // LRU clock.
        used.reset();
        expectSameState(used, fresh, cfg.name + " after reset", false);

        dirty(used);
        used.reseed(99);
        expectSameState(used, fresh, cfg.name + " after reseed", true);
    }
}

TEST(CacheFresh, EmptyCacheHoldsNoLineAtEitherEnd)
{
    for (const CacheConfig &cfg : geometries()) {
        Rng rng(3);
        const Cache cache(cfg, rng, 7);
        EXPECT_EQ(cache.probe(0), nullptr) << cfg.name;
        EXPECT_EQ(cache.probe(kHighestLine), nullptr) << cfg.name;
        // kAddrInvalid's tag key is the empty way's: it must never hit.
        EXPECT_EQ(cache.probe(kAddrInvalid), nullptr) << cfg.name;
        EXPECT_TRUE(cache.residentLines().empty()) << cfg.name;
        for (unsigned set = 0; set < cfg.numSets(); ++set)
            ASSERT_EQ(cache.setOccupancy(set), 0u) << cfg.name;
    }
}

TEST(CacheFresh, LineZeroAndHighestLineInstallProbeAndInvalidate)
{
    for (const CacheConfig &cfg : geometries()) {
        Rng rng(3);
        Cache cache(cfg, rng, 7);
        for (const Addr line : {Addr{0}, kHighestLine}) {
            const FillResult fill = cache.install(line, 2, true, 11);
            EXPECT_FALSE(fill.victimValid) << cfg.name;
            const CacheLine *hit = cache.probe(line);
            ASSERT_NE(hit, nullptr) << cfg.name;
            EXPECT_TRUE(hit->valid);
            EXPECT_TRUE(hit->speculative);
            EXPECT_EQ(hit->installer, 11u);
            EXPECT_EQ(cache.setOccupancy(fill.set), 1u) << cfg.name;
            cache.commitSpeculative(line, 11);
            EXPECT_FALSE(cache.probe(line)->speculative);
        }
        EXPECT_EQ(cache.residentLines(),
                  (std::vector<Addr>{0, kHighestLine}))
            << cfg.name;
        EXPECT_EQ(cache.probe(kAddrInvalid), nullptr) << cfg.name;

        // Fill line 0's set to the last way, then evict: the victim is
        // a real line (maybe line 0) and no longer probes.
        const unsigned set0 = cache.setOf(0);
        Addr next = 0;
        auto next_in_set0 = [&] {
            do {
                next += kLineBytes;
            } while (cache.setOf(next) != set0);
            return next;
        };
        while (cache.setOccupancy(set0) < cfg.ways)
            cache.install(next_in_set0(), 2, false, kSeqNone);
        const Addr extra = next_in_set0();
        const FillResult evict = cache.install(extra, 2, false, kSeqNone);
        ASSERT_TRUE(evict.victimValid) << cfg.name;
        EXPECT_EQ(cache.probe(evict.victimLine), nullptr) << cfg.name;
        EXPECT_NE(cache.probe(extra), nullptr) << cfg.name;

        // Invalidate both ends; the set they leave reads empty again.
        for (const Addr line : {Addr{0}, kHighestLine}) {
            if (cache.probe(line) == nullptr)
                continue; // line 0 was the eviction victim
            EXPECT_TRUE(cache.invalidate(line)) << cfg.name;
            EXPECT_EQ(cache.probe(line), nullptr) << cfg.name;
            EXPECT_FALSE(cache.invalidate(line)) << cfg.name;
        }
        EXPECT_NO_THROW(cache.auditInvariants(10)) << cfg.name;
    }
}

} // namespace
} // namespace unxpec
