#include "harness/matrix.hh"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>

#include "analysis/key_recovery.hh"
#include "analysis/roc.hh"
#include "attack/contention.hh"
#include "attack/victim_attack.hh"
#include "harness/session.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/shared_memo.hh"
#include "workload/synth_spec.hh"

namespace unxpec {

namespace {

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

/**
 * The trial's overhead run, mcf_r on its own machine. Claimed before
 * the attack and read after it (see OverheadClaim).
 */
OverheadClaim
claimWorkloadCycles(const TrialContext &ctx)
{
    return OverheadClaim(
        Session::configFor(ctx.spec, Rng::deriveSeed(ctx.seed, 0)),
        "mcf_r", Rng::deriveSeed(ctx.seed, 1));
}

/** Matrix trials simulated in this process (matrixTrialSimulations). */
std::atomic<std::uint64_t> trialSimulations{0};

/** A matrix-trial memo key: every input of the trial but its seed. */
struct TrialKey
{
    SystemConfig cfg; //!< Session::configFor's config, seed cleared
    std::string label;
    std::string attack;
    std::string noise;
    UnxpecConfig attackCfg;

    bool operator==(const TrialKey &) const = default;
};

using TrialMemo = SharedMemo<TrialKey, TrialOutput>;

/**
 * True when a matrix trial's output is a function of its key alone: no
 * seed consumer is on (seedFree, and no interrupt noise) and it records
 * no trace.
 */
bool
memoEligible(const TrialContext &ctx, const SystemConfig &cfg)
{
    return seedFree(cfg) &&
           noiseProfile(ctx.spec.noise).interruptProbPerCycle == 0.0 &&
           ctx.tracer == nullptr;
}

/**
 * One matrix trial, always simulated. With `guard` set (the memo's
 * first claimant), panic unless every core's Rng is still where
 * Machine::reset put it: a draw means a seed consumer memoEligible()
 * does not know, and the memo would publish one seed's trial for all.
 */
TrialOutput
simulateMatrixTrial(const TrialContext &ctx, unsigned samples_per_class,
                    bool guard)
{
    ++trialSimulations;
    const bool contention =
        ctx.spec.label.find("/contention") != std::string::npos;
    OverheadClaim overhead = claimWorkloadCycles(ctx);

    std::vector<double> zeros;
    std::vector<double> ones;
    double cycles_per_sample = 0.0;
    {
        Session session(ctx);
        if (contention) {
            ContentionAttack attack(session.core());
            zeros = attack.collect(0, samples_per_class);
            ones = attack.collect(1, samples_per_class);
            cycles_per_sample = attack.cyclesPerSample();
        } else {
            UnxpecAttack &attack = session.unxpec();
            zeros = attack.collect(0, samples_per_class);
            ones = attack.collect(1, samples_per_class);
            cycles_per_sample = attack.cyclesPerSample();
        }
        Machine &machine = session.machine();
        for (unsigned i = 0; guard && i < machine.numCores(); ++i) {
            if (!(machine.core(i).rng() ==
                  Rng(Machine::coreSeed(ctx.seed, i))))
                panic("matrix trial on a seed-free config drew from the "
                      "Rng of core ", i);
        }
    }

    TrialOutput out;
    // Folded AUC = separability: a receiver can always flip its
    // decision rule, so a channel where secret=1 reads *faster*
    // (the unsafe baseline's persistence probe) is just as open.
    const double raw = RocCurve::of(zeros, ones).auc();
    out.metric("auc", std::max(raw, 1.0 - raw));
    out.metric("delta_cycles", meanOf(ones) - meanOf(zeros));
    out.metric("cycles_per_sample", cycles_per_sample);
    out.metric("workload_cycles", overhead.cycles());
    out.samples("latency0", std::move(zeros));
    out.samples("latency1", std::move(ones));
    return out;
}

} // namespace

const std::vector<std::string> &
matrixReceivers()
{
    static const std::vector<std::string> receivers = {"unxpec",
                                                       "contention"};
    return receivers;
}

const std::vector<std::string> &
matrixDefaultDefenses()
{
    static const std::vector<std::string> defenses = {
        "unsafe",     "cleanup_l1", "cleanup_l1l2", "invisispec",
        "delay_on_miss", "safespec", "specbox",     "cachesquash",
    };
    return defenses;
}

std::vector<ExperimentSpec>
matrixSpecs(const ExperimentSpec &base, bool all_defenses)
{
    std::vector<std::string> defenses;
    if (all_defenses) {
        for (const auto &[name, description] : defenseNames())
            defenses.push_back(name);
    } else {
        defenses = matrixDefaultDefenses();
    }

    std::vector<ExperimentSpec> specs;
    std::size_t cell = 0;
    for (const std::string &defense : defenses) {
        for (const std::string &receiver : matrixReceivers()) {
            ExperimentSpec spec = base;
            spec.label = defense + "/" + receiver;
            spec.defense = defense;
            // The cache-state receiver is unxpec-probe: rollback timing
            // plus the Flush+Reload persistence tail, so the unsafe
            // baseline's persistent installs read as AUC ~1.0 too.
            spec.attack = receiver == "contention" ? "contention"
                                                   : "unxpec-probe";
            if (receiver == "contention") {
                // The contention channel needs the structural hazard: a
                // non-pipelined multiplier whose busy window survives
                // squashes. Cache defenses are untouched.
                spec.tweak = [](SystemConfig &cfg) {
                    cfg.core.mulPipelined = false;
                };
            }
            spec.with("cell", static_cast<double>(cell++));
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TrialFn
matrixTrialFn(unsigned samples_per_class)
{
    const auto memo = std::make_shared<TrialMemo>();
    return [samples_per_class, memo](const TrialContext &ctx) {
        SystemConfig cfg = Session::configFor(ctx.spec, ctx.seed);
        if (!memoEligible(ctx, cfg))
            return simulateMatrixTrial(ctx, samples_per_class, false);
        cfg.seed = 0;
        TrialKey key{std::move(cfg), ctx.spec.label, ctx.spec.attack,
                     ctx.spec.noise, ctx.spec.attackCfg};
        const std::shared_future<TrialOutput> shared =
            memo->claim(std::move(key), [&] {
                return simulateMatrixTrial(ctx, samples_per_class, true);
            });
        return shared.get();
    };
}

std::uint64_t
matrixTrialSimulations()
{
    return trialSimulations.load();
}

const std::vector<std::string> &
victimReceivers()
{
    static const std::vector<std::string> receivers = {
        "victim-aes", "victim-rsa", "victim-rsa-fu"};
    return receivers;
}

const std::vector<std::string> &
victimDefaultDefenses()
{
    static const std::vector<std::string> defenses = {
        "unsafe", "cleanup_l1", "cleanup_l1l2", "safespec",
        "cachesquash"};
    return defenses;
}

std::vector<ExperimentSpec>
victimSpecs(const ExperimentSpec &base, bool all_defenses)
{
    std::vector<std::string> defenses;
    if (all_defenses) {
        for (const auto &[name, description] : defenseNames())
            defenses.push_back(name);
    } else {
        defenses = victimDefaultDefenses();
    }

    std::vector<ExperimentSpec> specs;
    std::size_t cell = 0;
    for (const std::string &defense : defenses) {
        for (const std::string &receiver : victimReceivers()) {
            ExperimentSpec spec = base;
            spec.label = defense + "/" + receiver;
            spec.defense = defense;
            // The registry knows the two victims; the "-fu" receiver
            // is the RSA victim read through the contention channel.
            spec.attack = receiver == "victim-rsa-fu" ? "victim-rsa"
                                                      : receiver;
            if (receiver == "victim-rsa-fu") {
                spec.tweak = [](SystemConfig &cfg) {
                    cfg.core.mulPipelined = false;
                };
            }
            spec.with("cell", static_cast<double>(cell++));
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TrialFn
victimTrialFn(unsigned plaintexts)
{
    return [plaintexts](const TrialContext &ctx) {
        const std::size_t slash = ctx.spec.label.find('/');
        const std::string receiver = slash == std::string::npos
            ? ctx.spec.label
            : ctx.spec.label.substr(slash + 1);
        OverheadClaim overhead = claimWorkloadCycles(ctx);

        double fraction = 0.0;
        double recovered_bits = 0.0;
        double delta = 0.0;
        double rate = 0.0;
        double cycles_per_sample = 0.0;
        {
            Session session(ctx);
            // The planted secret derives from the trial seed: every
            // rep recovers a different key, and the artifact is still
            // bit-stable for a given master seed.
            Rng rng(Rng::deriveSeed(ctx.seed, 2));
            const double ghz = session.config().clockGHz;
            VictimAttackConfig vcfg;
            if (receiver == "victim-aes") {
                vcfg.plaintexts = std::min(std::max(plaintexts, 1u), 8u);
                VictimAttack attack(session.core(), vcfg);
                std::array<std::uint8_t, 16> key;
                for (std::uint8_t &b : key)
                    b = static_cast<std::uint8_t>(rng.next());
                attack.setKey(key);
                const AesRecoveryResult res = attack.recoverAesKey();
                unsigned correct = 0;
                for (unsigned b = 0; b < key.size(); ++b) {
                    correct += res.guess[b] == key[b];
                    delta += res.margin[b] / key.size();
                }
                // OST recovers whole bytes: a byte is either pinned
                // exactly or worthless.
                fraction = correct / 16.0;
                recovered_bits = 8.0 * correct;
                rate = recoveredBitsPerSecond(
                    recovered_bits,
                    static_cast<double>(attack.totalCycles()), ghz);
                cycles_per_sample = attack.cyclesPerSample();
            } else {
                vcfg.victim.kind = VictimKind::RsaSqMul;
                VictimAttack attack(session.core(), vcfg);
                const std::uint64_t exponent = rng.next();
                attack.setExponent(exponent);
                const RsaRecoveryResult res =
                    attack.recoverExponent(receiver == "victim-rsa-fu");
                const std::uint64_t wrong = res.guess ^ exponent;
                unsigned correct = 64;
                for (unsigned b = 0; b < 64; ++b)
                    correct -= (wrong >> b) & 1;
                fraction = correct / 64.0;
                recovered_bits = correct;
                delta = res.gap;
                rate = recoveredBitsPerSecond(
                    recovered_bits,
                    static_cast<double>(attack.totalCycles()), ghz);
                cycles_per_sample = attack.cyclesPerSample();
            }
        }

        TrialOutput out;
        out.metric("auc", fraction);
        out.metric("recovered_bits", recovered_bits);
        out.metric("recovered_bits_per_sec", rate);
        out.metric("delta_cycles", delta);
        out.metric("cycles_per_sample", cycles_per_sample);
        out.metric("workload_cycles", overhead.cycles());
        return out;
    };
}

} // namespace unxpec
