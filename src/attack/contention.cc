#include "attack/contention.hh"

#include "attack/gadget.hh"
#include "sim/log.hh"

namespace unxpec {

namespace {

// Registers beyond the gadget's (attack/gadget.hh). The program has
// no probe array, so it reuses the numbers of gadget::rScaled..rTmp4.
constexpr RegIndex rLatTab = 7;   // latency-result base
constexpr RegIndex rZero = 11;    // constant 0 (inner compare)
constexpr RegIndex rMulA = 12;    // burst operands (always ready)
constexpr RegIndex rMulB = 13;
constexpr RegIndex rSink = 14;    // burst destination (dead value)
constexpr RegIndex rDelta = 15;   // measured latency
constexpr RegIndex rProbe = 16;   // dependent probe chain

} // namespace

ContentionAttack::ContentionAttack(Core &core, const ContentionConfig &cfg)
    : core_(core), cfg_(cfg)
{
    if (cfg_.transientMuls == 0)
        fatal("ContentionAttack: need at least one transient multiply");
    if (cfg_.probeMuls == 0)
        fatal("ContentionAttack: need at least one probe multiply");
    if (cfg_.conditionAccesses == 0)
        fatal("ContentionAttack: the bound chase needs an access");
    trials_ = cfg_.mistrainIterations + 1;
    buildProgram();
}

void
ContentionAttack::buildProgram()
{
    using namespace gadget;
    const unsigned c = cfg_.conditionAccesses;
    ProgramBuilder b;

    // ---- data segment ------------------------------------------------
    // A[0] = 0: training rounds take the inner secret==0 early-out.
    const Layout layout = allocate(b, c, trials_);
    secretAddr_ = layout.secret;
    latBase_ = b.alloc(8 * trials_);

    // ---- code ----------------------------------------------------------
    b.li(rA, static_cast<std::int64_t>(layout.a));
    b.li(rIdxTab, static_cast<std::int64_t>(layout.idx));
    b.li(rLatTab, static_cast<std::int64_t>(latBase_));
    b.li(rChain, static_cast<std::int64_t>(layout.chain));
    b.li(rZero, 0);
    b.li(rMulA, 3);
    b.li(rMulB, 5);
    b.li(rTrial, 0);
    b.li(rTrials, trials_);

    // Warm everything the measured round touches: the secret line, the
    // chase, and A. Every later load hits — the channel is cache-free.
    b.li(rTmp0, static_cast<std::int64_t>(secretAddr_));
    b.load(rTmp1, rTmp0, 0, 1);
    b.mov(rTmp0, rChain);
    for (unsigned j = 0; j < c; ++j)
        b.load(rTmp0, rTmp0);
    b.load(rTmp1, rA, 0, 1);

    const int loop_top = b.label();
    const int skip = b.label();
    b.bind(loop_top);
    loadTrialIndex(b);
    b.fence();

    // if (index < bound) { sender }. The bound is the warm chase plus
    // a dependent ALU padding chain: resolution takes ~conditionPadding
    // cycles — long enough for the inner redirect and the burst,
    // independent of any cache state. The sender's secret = A[index]
    // is an L1 hit either way; secret==0 takes the trained early-out,
    // secret==1 mispredicts it and the redirect falls into the
    // multiply burst.
    boundsCheck(b, c, cfg_.conditionPadding, skip);
    b.beq(rSecret, rZero, skip);
    for (unsigned m = 0; m < cfg_.transientMuls; ++m)
        b.mul(rSink, rMulA, rMulB);

    b.bind(skip);
    // Receiver: probe multiplies chained off t0 so none of them can
    // issue transiently (rdtscp is serializing and only executes on
    // the correct path).
    b.rdtscp(rT0);
    b.mov(rProbe, rT0);
    for (unsigned m = 0; m < cfg_.probeMuls; ++m)
        b.mul(rProbe, rProbe, rMulB);
    b.rdtscp(rT1);
    b.sub(rDelta, rT1, rT0);

    b.shl(rTmp0, rTrial, 3);
    b.add(rTmp0, rTmp0, rLatTab);
    b.store(rTmp0, 0, rDelta);
    loopTail(b, loop_top);

    program_ = b.build();
    dataLoaded_ = false;
}

void
ContentionAttack::setSecret(int bit)
{
    core_.mem().write8(secretAddr_, bit ? 1 : 0);
}

double
ContentionAttack::measureOnce()
{
    RunOptions options;
    options.loadData = !dataLoaded_;
    const RunResult result = core_.run(program_, options);
    dataLoaded_ = true;

    ++totalRuns_;
    totalCycles_ += result.cycles;

    const unsigned final_trial = trials_ - 1;
    return static_cast<double>(
        core_.mem().read64(latBase_ + 8 * final_trial));
}

std::vector<double>
ContentionAttack::collect(int secret, unsigned samples)
{
    setSecret(secret);
    std::vector<double> measurements;
    measurements.reserve(samples);
    for (unsigned i = 0; i < samples; ++i)
        measurements.push_back(measureOnce());
    return measurements;
}

double
ContentionAttack::cyclesPerSample() const
{
    return totalRuns_ == 0
        ? 0.0
        : static_cast<double>(totalCycles_) / totalRuns_;
}

} // namespace unxpec
