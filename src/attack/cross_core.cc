#include "attack/cross_core.hh"

#include "analysis/roc.hh"
#include "attack/channel.hh"
#include "attack/gadget.hh"
#include "sim/log.hh"

namespace unxpec {

namespace {

// Receiver registers beyond the gadget's (attack/gadget.hh).
constexpr RegIndex rLatTab = 7;   // receiver latency-result base
constexpr RegIndex rDelta = 15;   // measured latency
constexpr RegIndex rT0Tab = 20;   // receiver t0-result base

/**
 * Map raw probe latencies into the decoder's score domain. The
 * harness-wide convention (CovertChannel, RocCurve) is "secret=1
 * samples score higher"; in this channel secret=1 is the FAST class,
 * so analysis runs on negated latencies.
 */
std::vector<double>
negated(std::vector<double> v)
{
    for (double &x : v)
        x = -x;
    return v;
}

} // namespace

CrossCoreAttack::CrossCoreAttack(Machine &machine, const UnxpecConfig &cfg)
    : machine_(machine), cfg_(cfg)
{
    if (machine_.numCores() < 2)
        fatal("CrossCoreAttack: need a machine with at least 2 cores");
    if (cfg_.inBranchLoads == 0)
        fatal("CrossCoreAttack: need at least one in-branch load");
    if (cfg_.conditionAccesses == 0)
        fatal("CrossCoreAttack: f(N) needs at least one access");
    trials_ = cfg_.mistrainIterations + 1;
    buildPrograms();
}

void
CrossCoreAttack::buildPrograms()
{
    using namespace gadget;
    const unsigned n = cfg_.inBranchLoads;
    const unsigned c = cfg_.conditionAccesses;

    // ---- sender (core 0): POISON + one out-of-bounds round ----------
    ProgramBuilder b;

    const Addr p_base = b.alloc(kLineBytes * (n + 1));
    const Layout layout = allocate(b, c, trials_);
    secretAddr_ = layout.secret;
    rxLatBase_ = b.alloc(8);
    rxT0Base_ = b.alloc(8);

    b.li(rP, static_cast<std::int64_t>(p_base));
    b.li(rA, static_cast<std::int64_t>(layout.a));
    b.li(rIdxTab, static_cast<std::int64_t>(layout.idx));
    b.li(rChain, static_cast<std::int64_t>(layout.chain));
    b.li(rTrial, 0);
    b.li(rTrials, trials_);

    // Sender-side warmup: the victim touches its own secret, so the
    // transient secret load hits and the dependent loads issue early.
    b.li(rTmp0, static_cast<std::int64_t>(secretAddr_));
    b.load(rTmp1, rTmp0, 0, 1);
    // Bring P[0] in once.
    b.load(rTmp1, rP);

    const int loop_top = b.label();
    const int skip = b.label();
    b.bind(loop_top);
    loadTrialIndex(b);
    // Flush the f(N) chain and P[64*1..64*n]. clflush is machine-wide
    // (MemoryHierarchy::flushLine -> CoherenceEngine::flushAll), so
    // this also evicts the receiver's copies from earlier rounds.
    flushProbe(b, c, n);
    b.fence();

    // if (index < f(N)) { secret = A[index]; load P[secret*64*k] }.
    boundsCheck(b, c, cfg_.conditionPadding, skip);
    transmit(b, n);

    b.bind(skip);
    loopTail(b, loop_top);
    sender_ = b.build();

    // ---- receiver (core 1): timed probe of P[64] --------------------
    // No allocations and no data images: every address was placed by
    // the sender's builder in the shared memory.
    ProgramBuilder r;
    r.li(rP, static_cast<std::int64_t>(p_base));
    r.li(rLatTab, static_cast<std::int64_t>(rxLatBase_));
    r.li(rT0Tab, static_cast<std::int64_t>(rxT0Base_));
    r.fence();
    r.rdtscp(rT0);
    r.load(rTmp4, rP, kLineBytes); // probe P[64]
    r.rdtscp(rT1);                 // waits for the probe to complete
    r.sub(rDelta, rT1, rT0);
    r.store(rLatTab, 0, rDelta);
    r.store(rT0Tab, 0, rT0);
    r.halt();
    receiver_ = r.build();

    dataLoaded_ = false;
}

void
CrossCoreAttack::setSecret(int bit)
{
    machine_.core(0).mem().write8(secretAddr_, bit ? 1 : 0);
}

double
CrossCoreAttack::measureOnce()
{
    RunOptions sender_opts;
    sender_opts.loadData = !dataLoaded_;
    const RunResult sent = machine_.runOn(0, sender_, sender_opts);
    dataLoaded_ = true;

    RunOptions receiver_opts;
    receiver_opts.loadData = false;
    const RunResult probed = machine_.runOn(1, receiver_, receiver_opts);

    ++totalRuns_;
    totalCycles_ += sent.cycles + probed.cycles;

    return static_cast<double>(
        machine_.core(0).mem().read64(rxLatBase_));
}

std::vector<double>
CrossCoreAttack::collect(int secret, unsigned samples)
{
    setSecret(secret);
    std::vector<double> measurements;
    measurements.reserve(samples);
    for (unsigned i = 0; i < samples; ++i)
        measurements.push_back(measureOnce());
    return measurements;
}

double
CrossCoreAttack::calibrate(unsigned samples_per_secret)
{
    const auto zeros = collect(0, samples_per_secret);
    const auto ones = collect(1, samples_per_secret);
    return CovertChannel::calibrateThreshold(negated(zeros), negated(ones));
}

double
CrossCoreAttack::aucScore(unsigned samples_per_secret)
{
    const auto zeros = collect(0, samples_per_secret);
    const auto ones = collect(1, samples_per_secret);
    return RocCurve::of(negated(zeros), negated(ones)).auc();
}

LeakResult
CrossCoreAttack::leak(const std::vector<int> &secret_bits,
                      double threshold)
{
    LeakResult result;
    result.guesses.reserve(secret_bits.size());
    result.latencies.reserve(secret_bits.size());
    for (const int bit : secret_bits) {
        setSecret(bit);
        const double latency = measureOnce();
        result.latencies.push_back(latency);
        result.guesses.push_back(CovertChannel::decode(-latency, threshold));
    }
    result.accuracy = CovertChannel::accuracy(result.guesses, secret_bits);
    return result;
}

double
CrossCoreAttack::cyclesPerSample() const
{
    return totalRuns_ == 0
        ? 0.0
        : static_cast<double>(totalCycles_) / totalRuns_;
}

} // namespace unxpec
