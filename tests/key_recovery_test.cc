/**
 * @file
 * Unit tests for the key-recovery ranking math: known-latency
 * fixtures must produce an exact candidate order, plaintext evidence
 * must intersect, the bit-splitter must refuse to amplify a closed
 * channel into confident bits, and everything must be deterministic
 * (value-identical across repeated calls — the property the harness
 * relies on for thread- and shard-invariant results).
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/key_recovery.hh"

namespace unxpec {
namespace {

/** All entries miss (~latency 100) except `hot`, which hits (~8). */
ProbeEvidence
evidenceWithHotEntry(std::uint8_t plaintext, unsigned hot,
                     double hit = 8.0, double miss = 100.0)
{
    ProbeEvidence e;
    e.plaintext = plaintext;
    e.entryLatencies.assign(256, miss);
    e.entryLatencies[hot] = hit;
    return e;
}

TEST(RankKeyByteTest, SinglePlaintextPinsTheByte)
{
    // Victim touched entry pt ^ key: key 0x2b under plaintext 0xa5
    // warms entry 0x8e.
    const std::vector<ProbeEvidence> evidence = {
        evidenceWithHotEntry(0xa5, 0xa5 ^ 0x2b)};
    const ByteRanking ranking = rankKeyByte(evidence, 16.0);
    EXPECT_EQ(ranking.best(), 0x2b);
    EXPECT_TRUE(ranking.confident);
    // Exactly one candidate explains the hit: margin is the full
    // hit/miss separation.
    EXPECT_DOUBLE_EQ(ranking.margin, 92.0);
    // Runner-up ties resolve by candidate value: all other 255
    // candidates score identically, so rank 1 is the smallest one.
    EXPECT_EQ(ranking.ranked[1], 0x00);
    EXPECT_EQ(ranking.scores.size(), 256u);
}

TEST(RankKeyByteTest, PlaintextEvidenceIntersects)
{
    // Two plaintexts each pin the same key byte; their combined score
    // doubles the margin for the true byte.
    const std::uint8_t key = 0xcf;
    const std::vector<ProbeEvidence> evidence = {
        evidenceWithHotEntry(0x00, key),
        evidenceWithHotEntry(0x3c, 0x3cu ^ key)};
    const ByteRanking ranking = rankKeyByte(evidence, 16.0);
    EXPECT_EQ(ranking.best(), key);
    EXPECT_DOUBLE_EQ(ranking.margin, 184.0);
}

TEST(RankKeyByteTest, ConflictingEvidenceStaysOrderedAndExact)
{
    // One plaintext saw the true entry, the other saw a spurious hit
    // (e.g. a prefetch): the true byte still wins because only it is
    // hot under both, and the spurious candidate ranks second.
    const std::uint8_t key = 0x7e;
    ProbeEvidence truthful = evidenceWithHotEntry(0x00, key);
    ProbeEvidence noisy = evidenceWithHotEntry(0xa5, 0xa5 ^ key);
    noisy.entryLatencies[0xa5 ^ 0x11] = 8.0; // spurious hit -> cand 0x11
    const ByteRanking ranking =
        rankKeyByte({truthful, noisy}, 16.0);
    EXPECT_EQ(ranking.best(), key);
    EXPECT_EQ(ranking.ranked[1], 0x11);
    EXPECT_DOUBLE_EQ(ranking.scores[1] - ranking.scores[0], 92.0);
}

TEST(RankKeyByteTest, FlatLatenciesAreNotConfident)
{
    // Closed channel: every reload misses. The ranking still exists
    // (ties broken by candidate value -> 0 first) but must not claim
    // confidence.
    ProbeEvidence flat;
    flat.plaintext = 0x42;
    flat.entryLatencies.assign(256, 100.0);
    const ByteRanking ranking = rankKeyByte({flat}, 16.0);
    EXPECT_FALSE(ranking.confident);
    EXPECT_DOUBLE_EQ(ranking.margin, 0.0);
    EXPECT_EQ(ranking.best(), 0x00);
}

TEST(RankKeyByteTest, SmallerTablesFoldCandidates)
{
    // A 16-entry table cannot distinguish candidates that agree in
    // their low 4 bits; the ranking folds through the mask and the
    // smallest aliased candidate ranks first.
    ProbeEvidence e;
    e.plaintext = 0x00;
    e.entryLatencies.assign(16, 100.0);
    e.entryLatencies[0x5] = 10.0;
    const ByteRanking ranking = rankKeyByte({e}, 16.0);
    EXPECT_EQ(ranking.best(), 0x05);
    EXPECT_EQ(ranking.ranked[1], 0x15); // same low nibble, next value
}

TEST(RankKeyByteTest, DeterministicAcrossCalls)
{
    // The exact property the harness leans on for thread/shard
    // invariance: identical latencies -> identical rankings. (Threads
    // never share a ranking call; this pins the value-determinism.)
    const std::vector<ProbeEvidence> evidence = {
        evidenceWithHotEntry(0x17, 0x9a),
        evidenceWithHotEntry(0x88, 0x05)};
    const ByteRanking a = rankKeyByte(evidence, 16.0);
    const ByteRanking b = rankKeyByte(evidence, 16.0);
    EXPECT_EQ(a.ranked, b.ranked);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.margin, b.margin);
}

TEST(RankKeyByteTest, RejectsMalformedEvidence)
{
    EXPECT_EXIT(rankKeyByte({}, 1.0), ::testing::ExitedWithCode(1),
                "no probe evidence");
    ProbeEvidence bad;
    bad.entryLatencies.assign(100, 1.0); // not a power of two
    EXPECT_EXIT(rankKeyByte({bad}, 1.0), ::testing::ExitedWithCode(1),
                "power of two");
    ProbeEvidence a = evidenceWithHotEntry(0, 1);
    ProbeEvidence shorter;
    shorter.entryLatencies.assign(128, 1.0);
    EXPECT_EXIT(rankKeyByte({a, shorter}, 1.0),
                ::testing::ExitedWithCode(1), "mismatched");
}

// --- splitBits ----------------------------------------------------------

TEST(SplitBitsTest, CacheReceiverDecodesFastAsOne)
{
    // Reload latencies: hits (fast) are 1 bits for the cache receiver.
    const std::vector<double> values = {100, 8, 8, 100, 8, 100};
    const BitSplit split = splitBits(values, /*one_is_high=*/false, 8.0);
    EXPECT_TRUE(split.confident);
    EXPECT_DOUBLE_EQ(split.gap, 92.0);
    EXPECT_EQ(split.bits, (std::vector<int>{0, 1, 1, 0, 1, 0}));
}

TEST(SplitBitsTest, ContentionReceiverDecodesSlowAsOne)
{
    // Probe times: a delayed probe (burst happened) is a 1 bit.
    const std::vector<double> values = {30, 90, 30, 90};
    const BitSplit split = splitBits(values, /*one_is_high=*/true, 8.0);
    EXPECT_TRUE(split.confident);
    EXPECT_EQ(split.bits, (std::vector<int>{0, 1, 0, 1}));
    EXPECT_DOUBLE_EQ(split.threshold, 60.0);
}

TEST(SplitBitsTest, ClosedChannelYieldsNoBits)
{
    // All values within noise: refusing to split beats inventing a
    // key from jitter.
    const std::vector<double> values = {50, 51, 50, 52, 51};
    const BitSplit split = splitBits(values, true, 8.0);
    EXPECT_FALSE(split.confident);
    EXPECT_EQ(split.bits, (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(SplitBitsTest, DegenerateInputsAreSafe)
{
    EXPECT_FALSE(splitBits({}, true, 1.0).confident);
    EXPECT_FALSE(splitBits({42.0}, true, 1.0).confident);
    EXPECT_EQ(splitBits({42.0}, true, 1.0).bits,
              (std::vector<int>{0}));
}

// --- recoveredBitsPerSecond ---------------------------------------------

TEST(RecoveredRateTest, ScalesWithClockAndCycles)
{
    // 128 bits over 4M cycles at 2 GHz = 64k bits/s.
    EXPECT_DOUBLE_EQ(recoveredBitsPerSecond(128, 4e6, 2.0), 64000.0);
    EXPECT_DOUBLE_EQ(recoveredBitsPerSecond(128, 0.0, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(recoveredBitsPerSecond(0, 1e6, 2.0), 0.0);
}

} // namespace
} // namespace unxpec
