/**
 * @file
 * Unit tests for SetIndexer: modulo and CEASER-style set indexing.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "memory/address_map.hh"

namespace unxpec {
namespace {

TEST(SetIndexerTest, ModuloUsesLineNumberModSets)
{
    SetIndexer index(IndexPolicy::Modulo, 64, 0);
    EXPECT_EQ(index.set(0), 0u);
    EXPECT_EQ(index.set(64), 1u);
    EXPECT_EQ(index.set(64 * 64), 0u);
    EXPECT_EQ(index.set(64 * 65), 1u);
}

TEST(SetIndexerTest, ModuloHandlesNonPowerOfTwoSetCount)
{
    SetIndexer index(IndexPolicy::Modulo, 48, 0);
    EXPECT_EQ(index.set(47 << kLineShift), 47u);
    EXPECT_EQ(index.set(48 << kLineShift), 0u);
    EXPECT_EQ(index.set(100 << kLineShift), 4u);
}

TEST(SetIndexerTest, OffsetBitsIrrelevant)
{
    SetIndexer index(IndexPolicy::Modulo, 64, 0);
    EXPECT_EQ(index.set(lineAlign(0x12345)), index.set(lineAlign(0x1237f)));
}

TEST(SetIndexerTest, CeaserPermutationIsBijective)
{
    SetIndexer index(IndexPolicy::Ceaser, 2048, 0x1234);
    std::set<std::uint64_t> images;
    for (std::uint64_t line = 0; line < 4096; ++line)
        images.insert(index.permute(line));
    EXPECT_EQ(images.size(), 4096u);
}

TEST(SetIndexerTest, CeaserKeyChangesMapping)
{
    SetIndexer a(IndexPolicy::Ceaser, 2048, 1);
    SetIndexer b(IndexPolicy::Ceaser, 2048, 2);
    unsigned differing = 0;
    for (Addr line = 0; line < 512; ++line) {
        if (a.set(line << kLineShift) != b.set(line << kLineShift))
            ++differing;
    }
    EXPECT_GT(differing, 400u);
}

TEST(SetIndexerTest, CeaserBreaksContiguousSetPattern)
{
    // Consecutive lines map to consecutive sets under modulo but
    // should scatter under CEASER.
    SetIndexer ceaser(IndexPolicy::Ceaser, 2048, 0xabcd);
    unsigned consecutive = 0;
    for (Addr line = 0; line + 1 < 256; ++line) {
        const unsigned a = ceaser.set(line << kLineShift);
        const unsigned b = ceaser.set((line + 1) << kLineShift);
        if ((a + 1) % 2048 == b)
            ++consecutive;
    }
    EXPECT_LT(consecutive, 8u);
}

TEST(SetIndexerTest, CeaserSetsRoughlyBalanced)
{
    SetIndexer ceaser(IndexPolicy::Ceaser, 64, 0x5555);
    std::map<unsigned, unsigned> counts;
    const unsigned lines = 64 * 64;
    for (Addr line = 0; line < lines; ++line)
        ++counts[ceaser.set(line << kLineShift)];
    for (const auto &[set, count] : counts) {
        EXPECT_GT(count, 64u / 3);
        EXPECT_LT(count, 64u * 3);
    }
}

TEST(SetIndexerTest, CeaserDeterministicForSameKey)
{
    SetIndexer a(IndexPolicy::Ceaser, 2048, 77);
    SetIndexer b(IndexPolicy::Ceaser, 2048, 77);
    for (Addr line = 0; line < 256; ++line)
        EXPECT_EQ(a.set(line << kLineShift), b.set(line << kLineShift));
}

TEST(SetIndexerTest, RekeyMatchesFreshConstruction)
{
    // Core::reset re-derives the seed-dependent key in place; the
    // mapping must equal an indexer built with that key.
    SetIndexer rekeyed(IndexPolicy::Ceaser, 2048, 1);
    rekeyed.rekey(77);
    const SetIndexer fresh(IndexPolicy::Ceaser, 2048, 77);
    for (Addr line = 0; line < 256; ++line) {
        EXPECT_EQ(rekeyed.set(line << kLineShift),
                  fresh.set(line << kLineShift));
    }
}

} // namespace
} // namespace unxpec
