#include "attack/unxpec.hh"

#include <algorithm>

#include "attack/channel.hh"
#include "attack/eviction_set.hh"
#include "attack/gadget.hh"
#include "sim/log.hh"

namespace unxpec {

namespace {

// Registers beyond the gadget's (attack/gadget.hh).
constexpr RegIndex rLatTab = 7;   // latency-result base
constexpr RegIndex rTmp3 = 12;
constexpr RegIndex rDelta = 15;   // measured latency
constexpr RegIndex rTmp5 = 16;
constexpr RegIndex rT0Tab = 20;   // t0-result base

} // namespace

const std::vector<UnxpecVariant> &
unxpecVariants()
{
    static const std::vector<UnxpecVariant> variants = {
        {"unxpec", "plain rollback-timing channel (~22-cycle delta)",
         [](UnxpecConfig &) {}},
        {"unxpec-evset",
         "eviction sets prime the target L1 sets, forcing restorations "
         "(~32-cycle delta, SV-B)",
         [](UnxpecConfig &cfg) { cfg.useEvictionSets = true; }},
        {"unxpec-wide",
         "eviction-set variant with 8 in-branch loads: maximum margin "
         "at proportional rate cost (SV-C)",
         [](UnxpecConfig &cfg) {
             cfg.useEvictionSets = true;
             cfg.inBranchLoads = 8;
         }},
        {"unxpec-fast",
         "short POISON loop (8 mistrainings): maximum sample rate",
         [](UnxpecConfig &cfg) { cfg.mistrainIterations = 8; }},
        {"unxpec-probe",
         "rollback timing plus a Flush+Reload persistence tail: the "
         "matrix's cache-state receiver (also reads the unsafe "
         "baseline's persistent installs)",
         [](UnxpecConfig &cfg) { cfg.probePersistence = true; }},
        {"unxpec-xcore",
         "cross-core variant: a receiver core times coherence "
         "downgrades of the sender's transient install (needs "
         "cores >= 2)",
         [](UnxpecConfig &) {}},
    };
    return variants;
}

UnxpecAttack::UnxpecAttack(Core &core, const UnxpecConfig &cfg)
    : core_(core), cfg_(cfg)
{
    if (cfg_.inBranchLoads == 0)
        fatal("UnxpecAttack: need at least one in-branch load");
    if (cfg_.conditionAccesses == 0)
        fatal("UnxpecAttack: f(N) needs at least one access");
    trials_ = cfg_.mistrainIterations + 1;
    buildProgram();
}

void
UnxpecAttack::buildProgram()
{
    using namespace gadget;
    const unsigned n = cfg_.inBranchLoads;
    const unsigned c = cfg_.conditionAccesses;
    ProgramBuilder b;

    // ---- data segment ------------------------------------------------
    const Addr p_base = b.alloc(kLineBytes * (n + 1));
    const Layout layout = allocate(b, c, trials_);
    secretAddr_ = layout.secret;
    latBase_ = b.alloc(8 * trials_);
    t0Base_ = b.alloc(8 * trials_);

    std::vector<Addr> eviction_addrs;
    if (cfg_.useEvictionSets) {
        const unsigned l1_sets = core_.config().l1d.numSets();
        const unsigned l1_ways = core_.config().l1d.ways;
        const Addr pool =
            b.alloc(static_cast<std::size_t>(l1_sets) * l1_ways *
                    kLineBytes * 2);
        for (unsigned k = 1; k <= n; ++k) {
            const auto set_addrs = EvictionSet::direct(
                p_base + k * kLineBytes, l1_sets, l1_ways, pool);
            eviction_addrs.insert(eviction_addrs.end(), set_addrs.begin(),
                                  set_addrs.end());
        }
    }

    // ---- code ----------------------------------------------------------
    b.li(rP, static_cast<std::int64_t>(p_base));
    b.li(rA, static_cast<std::int64_t>(layout.a));
    b.li(rIdxTab, static_cast<std::int64_t>(layout.idx));
    b.li(rLatTab, static_cast<std::int64_t>(latBase_));
    b.li(rT0Tab, static_cast<std::int64_t>(t0Base_));
    b.li(rChain, static_cast<std::int64_t>(layout.chain));
    b.li(rTrial, 0);
    b.li(rTrials, trials_);

    // Sender-side warmup: the victim touches its own secret, so the
    // transient secret load hits and the dependent loads issue early.
    b.li(rTmp0, static_cast<std::int64_t>(secretAddr_));
    b.load(rTmp1, rTmp0, 0, 1);

    // Prime P[64*k]'s L1 sets with the eviction set (§V-B). Rollback
    // restores displaced lines, so in a quiet machine priming once
    // keeps the sets primed for every subsequent round (§VI-B).
    for (const Addr addr : eviction_addrs) {
        b.li(rTmp0, static_cast<std::int64_t>(addr));
        b.load(rTmp1, rTmp0);
    }
    // Bring P[0] in once.
    b.load(rTmp1, rP);

    const int loop_top = b.label();
    const int skip = b.label();
    b.bind(loop_top);
    loadTrialIndex(b);
    // Flush the f(N) chain (clflush &N of §VI-A) and P[64*1..64*n].
    flushProbe(b, c, n);

    // Measurement stage: fence zeroes out T4, then t0.
    b.fence();
    b.rdtscp(rT0);

    // if (index < f(N)) { secret = A[index]; load P[secret*64*k] }.
    boundsCheck(b, c, cfg_.conditionPadding, skip);
    transmit(b, n);

    b.bind(skip);
    b.rdtscp(rT1);
    b.sub(rDelta, rT1, rT0);

    if (cfg_.probePersistence) {
        // Flush+Reload tail: reload the k=1 transient target and fold
        // the reload time in; next round's clflush of P[64*k] resets
        // the probe. The address is chained off the serializing t2
        // read (t2 ^ t2 = 0) — the skip path is also the transient
        // body's fall-through, so an unchained reload would issue
        // inside the window and warm its own target in both classes.
        b.rdtscp(rTmp2);
        b.xor_(rTmp4, rTmp2, rTmp2);
        b.add(rTmp4, rTmp4, rP);
        b.load(rTmp4, rTmp4, kLineBytes);
        b.rdtscp(rPtr);
        b.sub(rTmp4, rPtr, rTmp2);
        b.add(rDelta, rDelta, rTmp4);
    }

    // Record latency and t0 for this trial.
    b.shl(rTmp5, rTrial, 3);
    b.add(rTmp3, rTmp5, rLatTab);
    b.store(rTmp3, 0, rDelta);
    b.add(rTmp3, rTmp5, rT0Tab);
    b.store(rTmp3, 0, rT0);
    loopTail(b, loop_top);

    program_ = b.build();
    dataLoaded_ = false;
}

void
UnxpecAttack::setSecret(int bit)
{
    core_.mem().write8(secretAddr_, bit ? 1 : 0);
}

double
UnxpecAttack::measureOnce()
{
    CleanupEngine &engine = core_.cleanup();
    engine.clearLog();
    engine.enableLog(true);

    RunOptions options;
    options.loadData = !dataLoaded_;
    const RunResult result = core_.run(program_, options);
    dataLoaded_ = true;
    engine.enableLog(false);

    ++totalRuns_;
    totalCycles_ += result.cycles;

    const unsigned final_trial = trials_ - 1;
    const double latency = static_cast<double>(
        core_.mem().read64(latBase_ + 8 * final_trial));
    const Cycle t0 = core_.mem().read64(t0Base_ + 8 * final_trial);

    last_ = RoundDetail{};
    last_.latency = latency;
    last_.t0 = t0;
    for (const SquashLog &log : engine.log()) {
        if (log.cycle >= t0 &&
            log.cycle <= t0 + static_cast<Cycle>(latency)) {
            last_.branchResolution = log.cycle - t0;
            last_.cleanupStall = log.stall;
            last_.invalidationsL1 = log.l1Invalidations;
            last_.invalidationsL2 = log.l2Invalidations;
            last_.restores = log.restores;
            last_.valid = true;
            break;
        }
    }
    return latency;
}

std::vector<double>
UnxpecAttack::collect(int secret, unsigned samples)
{
    setSecret(secret);
    std::vector<double> measurements;
    measurements.reserve(samples);
    for (unsigned i = 0; i < samples; ++i)
        measurements.push_back(measureOnce());
    return measurements;
}

double
UnxpecAttack::calibrate(unsigned samples_per_secret)
{
    const auto zeros = collect(0, samples_per_secret);
    const auto ones = collect(1, samples_per_secret);
    return CovertChannel::calibrateThreshold(zeros, ones);
}

LeakResult
UnxpecAttack::leak(const std::vector<int> &secret_bits, double threshold,
                   unsigned samples_per_bit)
{
    if (samples_per_bit == 0)
        fatal("UnxpecAttack::leak: need at least one sample per bit");
    LeakResult result;
    result.guesses.reserve(secret_bits.size());
    result.latencies.reserve(secret_bits.size());
    for (const int bit : secret_bits) {
        setSecret(bit);
        std::vector<double> samples;
        samples.reserve(samples_per_bit);
        for (unsigned s = 0; s < samples_per_bit; ++s)
            samples.push_back(measureOnce());
        result.latencies.push_back(samples.front());
        result.guesses.push_back(
            CovertChannel::decodeMajority(samples, threshold));
    }
    result.accuracy = CovertChannel::accuracy(result.guesses, secret_bits);
    return result;
}

std::vector<std::uint8_t>
UnxpecAttack::leakBytes(const std::vector<std::uint8_t> &secret,
                        double threshold, unsigned samples_per_bit)
{
    std::vector<int> bits;
    bits.reserve(secret.size() * 8);
    for (const std::uint8_t byte : secret) {
        for (int bit = 7; bit >= 0; --bit)
            bits.push_back((byte >> bit) & 1);
    }
    const LeakResult result = leak(bits, threshold, samples_per_bit);

    std::vector<std::uint8_t> received;
    received.reserve(secret.size());
    for (std::size_t i = 0; i < secret.size(); ++i) {
        std::uint8_t byte = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            byte = static_cast<std::uint8_t>(
                (byte << 1) | result.guesses[i * 8 + bit]);
        received.push_back(byte);
    }
    return received;
}

double
UnxpecAttack::cyclesPerSample() const
{
    return totalRuns_ == 0
        ? 0.0
        : static_cast<double>(totalCycles_) / totalRuns_;
}

void
UnxpecAttack::resetTrialState()
{
    // Everything else (program, data layout, trials_) is derived
    // deterministically from the configs in the constructor and stays
    // valid across trials on the same config.
    dataLoaded_ = false;
    last_ = RoundDetail{};
    totalRuns_ = 0;
    totalCycles_ = 0;
}

} // namespace unxpec
