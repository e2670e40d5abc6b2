/**
 * @file
 * Key-recovery analysis: turns the per-trial latencies a victim attack
 * produces into ranked key guesses.
 *
 * Two recovery shapes, matching the two victim programs (src/victim/):
 *
 *  - AES T-table bytes: every known plaintext contributes one reload
 *    latency per table entry (the tables are laid out one entry per
 *    cache line, so entry index == line index). A candidate key byte k
 *    predicts which entry the victim's first-round lookup touched
 *    (pt ^ k); its score sums the measured latency of that entry over
 *    every plaintext, so the true byte — whose predicted entries are
 *    the warm ones — scores lowest. rankKeyByte() returns all 256
 *    candidates best-first with a confidence margin.
 *
 *  - RSA square-and-multiply bits: one scalar statistic per exponent
 *    bit (a reload latency or a contention-probe time). splitBits()
 *    two-clusters the statistics at the largest gap and maps the high
 *    or low cluster to bit 1, with a gap threshold below which the
 *    channel is declared closed (no recovery) instead of amplifying
 *    noise into confident-looking bits.
 *
 * Everything here is deterministic: ties break on candidate value, so
 * identical latencies give identical rankings on any thread or shard
 * count.
 */

#ifndef UNXPEC_ANALYSIS_KEY_RECOVERY_HH
#define UNXPEC_ANALYSIS_KEY_RECOVERY_HH

#include <cstdint>
#include <vector>

namespace unxpec {

/** Probe evidence for one key byte under one known plaintext byte. */
struct ProbeEvidence
{
    std::uint8_t plaintext = 0;
    /** Reload latency per table entry (one entry per cache line). */
    std::vector<double> entryLatencies;
};

/** Ranked candidates for one key byte, best (lowest score) first. */
struct ByteRanking
{
    std::vector<std::uint8_t> ranked; //!< all candidates, best first
    std::vector<double> scores;       //!< aggregate score, ascending
    double margin = 0.0;              //!< scores[1] - scores[0]
    bool confident = false;           //!< margin >= the caller's floor

    std::uint8_t best() const { return ranked.empty() ? 0 : ranked[0]; }
};

/**
 * Rank all 256 key-byte candidates from `evidence` (one entry per
 * known plaintext; every entryLatencies vector must have the same
 * size, a power of two covering the table). `min_margin` is the
 * best-vs-runner-up score separation below which the ranking is
 * marked unconfident (closed channel). fatal() on empty or
 * mismatched evidence.
 */
ByteRanking rankKeyByte(const std::vector<ProbeEvidence> &evidence,
                        double min_margin);

/** Two-cluster split of per-bit statistics. */
struct BitSplit
{
    std::vector<int> bits;    //!< guessed bit per input value
    double threshold = 0.0;   //!< midpoint of the widest gap
    double gap = 0.0;         //!< width of that gap
    bool confident = false;   //!< gap >= the caller's floor
};

/**
 * Split `values` into two clusters at the widest gap in sorted order
 * and guess one bit per value: with `one_is_high`, values above the
 * threshold decode as 1 (contention receiver — the burst delays the
 * probe), otherwise values below decode as 1 (cache receiver — the
 * transient install makes the reload fast). When the widest gap is
 * under `min_gap` the channel is treated as closed: every bit decodes
 * as 0 and `confident` is false.
 */
BitSplit splitBits(const std::vector<double> &values, bool one_is_high,
                   double min_gap);

/**
 * End-to-end recovery rate: `correct_bits` secret bits recovered over
 * `total_cycles` simulated cycles at `clock_ghz`. 0 when no cycles
 * were spent.
 */
double recoveredBitsPerSecond(double correct_bits, double total_cycles,
                              double clock_ghz);

} // namespace unxpec

#endif // UNXPEC_ANALYSIS_KEY_RECOVERY_HH
