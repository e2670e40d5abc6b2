#include "workload/synth_spec.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "cpu/core.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/shared_memo.hh"

namespace unxpec {

namespace {

// Register plan for generated workloads.
constexpr RegIndex rBase = 1;    // working-set base
constexpr RegIndex rLcg = 2;     // pseudo-random stream
constexpr RegIndex rMask = 3;    // working-set mask
constexpr RegIndex rIter = 4;    // loop counter
constexpr RegIndex rIterMax = 5;
constexpr RegIndex rZero = 6;
constexpr RegIndex rLcgMul = 7;
constexpr RegIndex rAddr = 8;
constexpr RegIndex rVal = 9;
constexpr RegIndex rBit = 10;
constexpr RegIndex rSink = 11;
constexpr RegIndex rAcc0 = 12;   // ALU filler accumulators
constexpr RegIndex rAcc1 = 13;
constexpr RegIndex rAcc2 = 14;
constexpr RegIndex rMaskHot = 15; // hot-region address mask

enum class Element { Load, Store, DdBranch, Alu };

} // namespace

std::vector<WorkloadProfile>
SynthSpec::suite()
{
    // Branch-MPKI and memory-footprint figures loosely follow the
    // published characterization of SPECrate 2017 (a data-dependent
    // branch mispredicts ~50 %, so ddBranchesPerK ~ 2x target MPKI).
    return {
        {"perlbench_r",  9, 180, 80,   256, 0.05},
        {"gcc_r",       13, 200, 90,   512, 0.05},
        {"mcf_r",       28, 280, 60,  8192, 0.02},
        {"omnetpp_r",   20, 240, 90,  4096, 0.05},
        {"xalancbmk_r", 12, 230, 70,  1024, 0.05},
        {"x264_r",       4, 160, 80,   128, 0.20},
        {"deepsjeng_r", 23, 170, 60,   512, 0.10},
        {"leela_r",     25, 160, 50,   256, 0.10},
        {"exchange2_r", 16,  90, 40,    64, 0.05},
        {"xz_r",        20, 210, 70,  2048, 0.05},
        {"imagick_r",    2, 150, 70,   128, 0.30},
        {"lbm_r",        1, 260, 130, 8192, 0.20},
    };
}

WorkloadProfile
SynthSpec::profile(const std::string &name)
{
    for (const auto &candidate : suite()) {
        if (candidate.name == name)
            return candidate;
    }
    fatal("SynthSpec::profile: unknown benchmark '", name, "'");
}

Program
SynthSpec::generate(const WorkloadProfile &profile, std::uint64_t seed,
                    unsigned body_instructions, std::uint64_t iterations)
{
    Rng rng(seed ^ 0x5eedf00dull);
    ProgramBuilder b;

    const std::size_t ws_bytes =
        static_cast<std::size_t>(profile.workingSetKB) * 1024;
    const Addr ws_base = b.alloc(ws_bytes, 4096);
    // Address mask: power-of-two working set, 8-byte aligned accesses.
    std::size_t mask = 1;
    while (mask * 2 <= ws_bytes)
        mask *= 2;
    const std::uint64_t addr_mask = (mask - 1) & ~7ull;
    // Hot region: 16 KB (or the whole set if smaller) — the locality
    // that keeps most (including wrong-path) loads cache-resident.
    const std::uint64_t hot_mask =
        (std::min<std::size_t>(mask, 16 * 1024) - 1) & ~7ull;

    b.li(rBase, static_cast<std::int64_t>(ws_base));
    b.li(rLcg, static_cast<std::int64_t>(seed | 1));
    b.li(rMask, static_cast<std::int64_t>(addr_mask));
    b.li(rMaskHot, static_cast<std::int64_t>(hot_mask));
    b.li(rIter, 0);
    b.li(rIterMax, static_cast<std::int64_t>(iterations));
    b.li(rZero, 0);
    b.li(rLcgMul, 6364136223846793005ll);
    b.li(rSink, 0);
    b.li(rAcc0, 1);
    b.li(rAcc1, 2);
    b.li(rAcc2, 3);

    // Build the element schedule for one body.
    // Instruction cost per element: load 5, store 5, ddBranch 4, alu 1.
    std::vector<Element> schedule;
    unsigned budget = body_instructions;
    auto push_elements = [&](Element e, unsigned per_k, unsigned cost) {
        const unsigned count =
            static_cast<unsigned>(static_cast<std::uint64_t>(per_k) *
                                  body_instructions / 1000);
        for (unsigned i = 0; i < count && budget >= cost; ++i) {
            schedule.push_back(e);
            budget -= cost;
        }
    };
    push_elements(Element::Load, profile.loadsPerK / 5, 5);
    push_elements(Element::Store, profile.storesPerK / 5, 5);
    push_elements(Element::DdBranch, profile.ddBranchesPerK, 4);
    while (budget > 0) {
        schedule.push_back(Element::Alu);
        --budget;
    }
    // Shuffle deterministically.
    for (std::size_t i = schedule.size(); i > 1; --i)
        std::swap(schedule[i - 1], schedule[rng.range(i)]);

    const int loop_top = b.label();
    b.bind(loop_top);

    auto advance_lcg = [&b]() {
        b.mul(rLcg, rLcg, rLcgMul);
        b.addi(rLcg, rLcg, 1442695040888963407ll);
    };
    auto random_addr = [&](bool hot) {
        advance_lcg();
        b.and_(rAddr, rLcg, hot ? rMaskHot : rMask);
        b.add(rAddr, rAddr, rBase);
    };

    for (const Element element : schedule) {
        switch (element) {
          case Element::Load:
            random_addr(rng.chance(profile.hotFraction));
            b.load(rVal, rAddr);
            break;
          case Element::Store:
            random_addr(rng.chance(profile.hotFraction));
            b.store(rAddr, 0, rAcc0);
            break;
          case Element::DdBranch: {
            // Direction keyed to a pseudo-random bit: ~50 % taken, so
            // the bimodal predictor stays near chance — the squash
            // source Fig. 12's constant-time overhead scales with.
            // Half of these branches additionally fold in the last
            // loaded value: they resolve only after the load returns,
            // so the instructions behind them execute speculatively
            // for the whole miss latency (the realistic case that
            // Invisible schemes pay for at validation time).
            b.shr(rBit, rLcg, 33);
            if (rng.chance(0.5))
                b.xor_(rBit, rBit, rVal);
            const int skip = b.label();
            b.and_(rBit, rBit, rAcc0); // rAcc0 == 1; keep the low bit
            b.beq(rBit, rZero, skip);
            b.addi(rSink, rSink, 1);
            b.bind(skip);
            break;
          }
          case Element::Alu:
            if (rng.uniform() < profile.mulFraction)
                b.mul(rAcc1, rAcc1, rAcc0);
            else
                b.add(rAcc2, rAcc2, rAcc1);
            break;
        }
    }

    b.addi(rIter, rIter, 1);
    b.blt(rIter, rIterMax, loop_top);
    b.halt();
    return b.build();
}

namespace {

std::atomic<std::uint64_t> simulations{0};

/** One overhead run, always simulated; `cfg.seed` is its seed. */
double
simulate(const SystemConfig &cfg, const std::string &profile,
         std::uint64_t instructions, std::uint64_t warmup)
{
    ++simulations;
    RunOptions options;
    options.maxInstructions = instructions;
    options.warmupInstructions = warmup;
    const Program program = SynthSpec::generate(SynthSpec::profile(profile),
                                                kOverheadProgramSeed);
    Core core(cfg);
    const RunResult run = core.run(program, options);
    // The CEASER keys are the seed's only other way in, and seedFree()
    // excluded them: a draw here means a seed consumer seedFree() does
    // not know, and the memo would publish one seed's number for all.
    if (seedFree(cfg) && !(core.rng() == Rng(cfg.seed)))
        panic("overhead run on a seed-free config drew from its Rng");
    return static_cast<double>(run.cycles - run.warmupCycles);
}

/** A memo key: the run's inputs minus its seed. */
struct MemoKey
{
    SystemConfig cfg; //!< seed cleared
    std::string profile;
    std::uint64_t instructions;
    std::uint64_t warmup;

    bool operator==(const MemoKey &) const = default;
};

/** The memo: every seed-free key claimed in this process. */
SharedMemo<MemoKey, double> memo;

} // namespace

bool
seedFree(const SystemConfig &cfg)
{
    for (const CacheConfig *cache : {&cfg.l1i, &cfg.l1d, &cfg.l2}) {
        if (cache->index == IndexPolicy::Ceaser ||
            cache->repl == ReplPolicy::Random)
            return false;
    }
    return cfg.memory.jitterSigma == 0.0 &&
           cfg.cleanupTiming.fuzzyMaxCycles == 0;
}

OverheadClaim::OverheadClaim(SystemConfig cfg, const std::string &profile,
                             std::uint64_t seed, std::uint64_t instructions,
                             std::uint64_t warmup)
    : cfg_(std::move(cfg)), profile_(profile), instructions_(instructions),
      warmup_(warmup)
{
    cfg_.seed = seed;
    if (!seedFree(cfg_))
        return;
    MemoKey key{cfg_, profile_, instructions_, warmup_};
    key.cfg.seed = 0;
    shared_ = memo.claim(std::move(key), [this] {
        return simulate(cfg_, profile_, instructions_, warmup_);
    });
}

double
OverheadClaim::cycles()
{
    if (shared_.valid())
        return shared_.get();
    return simulate(cfg_, profile_, instructions_, warmup_);
}

double
postWarmupCycles(SystemConfig cfg, const std::string &profile,
                 std::uint64_t seed, std::uint64_t instructions,
                 std::uint64_t warmup)
{
    return OverheadClaim(std::move(cfg), profile, seed, instructions, warmup)
        .cycles();
}

std::uint64_t
overheadSimulations()
{
    return simulations.load();
}

} // namespace unxpec
