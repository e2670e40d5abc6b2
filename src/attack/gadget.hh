/**
 * @file
 * The bounds-check gadget every transient sender in this directory is
 * built on (paper §V, Algorithm 2): a trial loop whose branch
 * `if (index < f(N))` is mistrained in bounds, then taken out of bounds
 * once, so the transient body reads `secret = A[index]` past the end
 * of A. The rollback-timing channel (UnxpecAttack) and the
 * FU-contention receiver (ContentionAttack) both emit their shared
 * instructions and data layout through these pieces; each keeps its
 * own prologue `li`s, warm-up, transient body and receiver tail.
 *
 * Data layout (allocate(), in this order, each region line-aligned):
 *
 *   A       one line; A[0] = 0 is the byte every training round reads
 *   secret  one line; the victim's secret byte, at A + (secret - A)
 *   chain   `c` lines: the f(N) pointer chase, line j holding the
 *           address of line j+1 and the last line holding the bound 1
 *   idx     `trials` words: 0 for every training round, then the
 *           out-of-bounds index secret - A for the final round
 *
 * The caller allocates whatever comes before (the probe array P) and
 * after (its result tables). Data addresses pick the cache sets the
 * lines map to, so they are part of the channel's timing.
 */

#ifndef UNXPEC_ATTACK_GADGET_HH
#define UNXPEC_ATTACK_GADGET_HH

#include <cstdint>

#include "cpu/program.hh"
#include "sim/types.hh"

namespace unxpec {
namespace gadget {

// Registers the shared pieces read and write.
constexpr RegIndex rIdx = 1;      // index for the current trial
constexpr RegIndex rBound = 2;    // f(N) chain / bound value
constexpr RegIndex rSecret = 3;   // transiently loaded secret
constexpr RegIndex rA = 5;        // A base
constexpr RegIndex rIdxTab = 6;   // index-table base
constexpr RegIndex rTmp0 = 8;
constexpr RegIndex rTmp1 = 9;
constexpr RegIndex rTmp2 = 10;
constexpr RegIndex rTrial = 17;   // trial counter
constexpr RegIndex rTrials = 18;  // trial count
constexpr RegIndex rChain = 19;   // f(N) chain base
constexpr RegIndex rT0 = 24;      // first timestamp
constexpr RegIndex rT1 = 25;      // second timestamp

// Probe-array registers (the unXpec and Spectre v1 senders); a sender
// without a probe array is free to use the numbers otherwise.
constexpr RegIndex rP = 4;        // probe array P base
constexpr RegIndex rScaled = 11;  // secret * 64
constexpr RegIndex rPtr = 13;     // walking pointer over P
constexpr RegIndex rTmp4 = 14;    // dead destination of the P loads

/** Addresses allocate() placed. */
struct Layout
{
    Addr a = 0;
    Addr secret = 0;
    Addr chain = 0;
    Addr idx = 0;
};

/** Allocate and initialize A, secret, the `chain_lines`-line f(N)
 *  chase and the `trials`-word index table (see the file comment). */
Layout allocate(ProgramBuilder &b, unsigned chain_lines, unsigned trials);

/** Index table at `idx`: `trials - 1` zeros, then `oob_index`. */
void fillIndexTable(ProgramBuilder &b, Addr idx, unsigned trials,
                    std::uint64_t oob_index);

/** Loop top: rIdx = idxTable[rTrial]. */
void loadTrialIndex(ProgramBuilder &b);

/**
 * The bounds check: rBound = f(N) (the chase plus `padding` dependent
 * addi's, so resolution covers the transient body), `if (rIdx >=
 * rBound) goto skip` (trained not-taken), then the transient byte
 * load (readSecret).
 */
void boundsCheck(ProgramBuilder &b, unsigned chain_lines, unsigned padding,
                 int skip);

/** rSecret = A[rIdx] (one byte). */
void readSecret(ProgramBuilder &b);

/** ++rTrial; loop to `loop_top` while rTrial < rTrials; halt. */
void loopTail(ProgramBuilder &b, int loop_top);

} // namespace gadget
} // namespace unxpec

#endif // UNXPEC_ATTACK_GADGET_HH
