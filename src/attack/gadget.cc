#include "attack/gadget.hh"

namespace unxpec {
namespace gadget {

Layout
allocate(ProgramBuilder &b, unsigned chain_lines, unsigned trials)
{
    Layout l;
    l.a = b.alloc(kLineBytes);
    l.secret = b.alloc(kLineBytes);
    l.chain = b.alloc(kLineBytes * chain_lines);
    l.idx = b.alloc(8 * trials);

    // A[0] = 0: training rounds read (and transmit) secret 0.
    b.initByte(l.a, 0);
    // f(N) pointer chase; the last element holds the bound (1), so the
    // trained in-bounds index 0 satisfies index < bound.
    for (unsigned j = 0; j + 1 < chain_lines; ++j)
        b.initWord64(l.chain + j * kLineBytes,
                     l.chain + (j + 1) * kLineBytes);
    b.initWord64(l.chain + (chain_lines - 1) * kLineBytes, 1);
    fillIndexTable(b, l.idx, trials, l.secret - l.a);
    return l;
}

void
fillIndexTable(ProgramBuilder &b, Addr idx, unsigned trials,
               std::uint64_t oob_index)
{
    for (unsigned t = 0; t + 1 < trials; ++t)
        b.initWord64(idx + 8 * t, 0);
    b.initWord64(idx + 8 * (trials - 1), oob_index);
}

void
loadTrialIndex(ProgramBuilder &b)
{
    b.shl(rTmp0, rTrial, 3);
    b.add(rTmp0, rTmp0, rIdxTab);
    b.load(rIdx, rTmp0);
}

void
boundsCheck(ProgramBuilder &b, unsigned chain_lines, unsigned padding,
            int skip)
{
    b.mov(rBound, rChain);
    for (unsigned j = 0; j < chain_lines; ++j)
        b.load(rBound, rBound);
    for (unsigned p = 0; p < padding; ++p)
        b.addi(rBound, rBound, 0);
    b.bge(rIdx, rBound, skip);
    readSecret(b);
}

void
readSecret(ProgramBuilder &b)
{
    b.add(rTmp2, rA, rIdx);
    b.load(rSecret, rTmp2, 0, 1);
}

void
loopTail(ProgramBuilder &b, int loop_top)
{
    b.addi(rTrial, rTrial, 1);
    b.blt(rTrial, rTrials, loop_top);
    b.halt();
}

} // namespace gadget
} // namespace unxpec
