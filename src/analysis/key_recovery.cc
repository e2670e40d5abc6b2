#include "analysis/key_recovery.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"

namespace unxpec {

ByteRanking
rankKeyByte(const std::vector<ProbeEvidence> &evidence, double min_margin)
{
    if (evidence.empty())
        fatal("rankKeyByte: no probe evidence");
    const std::size_t entries = evidence.front().entryLatencies.size();
    if (entries == 0 || (entries & (entries - 1)) != 0 || entries > 256)
        fatal("rankKeyByte: table size must be a power of two <= 256, "
              "got ", entries);
    for (const ProbeEvidence &e : evidence) {
        if (e.entryLatencies.size() != entries)
            fatal("rankKeyByte: mismatched evidence sizes (",
                  e.entryLatencies.size(), " vs ", entries, ")");
    }

    // score[k] = sum over plaintexts of the latency of the entry a
    // key byte k would have sent the victim to. The mask folds
    // candidates onto the table when it is smaller than 256 entries.
    const std::size_t mask = entries - 1;
    std::vector<double> score(256, 0.0);
    for (const ProbeEvidence &e : evidence) {
        for (unsigned k = 0; k < 256; ++k)
            score[k] += e.entryLatencies[(e.plaintext ^ k) & mask];
    }

    ByteRanking ranking;
    ranking.ranked.resize(256);
    std::iota(ranking.ranked.begin(), ranking.ranked.end(), 0);
    // Ties break on candidate value: identical latencies rank
    // identically regardless of thread or shard count.
    std::sort(ranking.ranked.begin(), ranking.ranked.end(),
              [&score](std::uint8_t a, std::uint8_t b) {
                  if (score[a] != score[b])
                      return score[a] < score[b];
                  return a < b;
              });
    ranking.scores.reserve(256);
    for (const std::uint8_t k : ranking.ranked)
        ranking.scores.push_back(score[k]);
    ranking.margin = ranking.scores[1] - ranking.scores[0];
    ranking.confident = ranking.margin >= min_margin;
    return ranking;
}

BitSplit
splitBits(const std::vector<double> &values, bool one_is_high,
          double min_gap)
{
    BitSplit split;
    split.bits.assign(values.size(), 0);
    if (values.size() < 2)
        return split;

    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::size_t widest = 0;
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        if (sorted[i] - sorted[i - 1] >
            sorted[widest + 1] - sorted[widest]) {
            widest = i - 1;
        }
    }
    split.gap = sorted[widest + 1] - sorted[widest];
    split.threshold = (sorted[widest] + sorted[widest + 1]) / 2.0;
    split.confident = split.gap >= min_gap;
    if (!split.confident)
        return split; // closed channel: no bits, not noise-as-signal

    for (std::size_t i = 0; i < values.size(); ++i) {
        const bool high = values[i] > split.threshold;
        split.bits[i] = (high == one_is_high) ? 1 : 0;
    }
    return split;
}

double
recoveredBitsPerSecond(double correct_bits, double total_cycles,
                       double clock_ghz)
{
    if (total_cycles <= 0.0)
        return 0.0;
    return correct_bits / (total_cycles / (clock_ghz * 1e9));
}

} // namespace unxpec
