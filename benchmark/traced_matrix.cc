// Mirrors matrixTrialFn and victimTrialFn in src/harness/matrix.cc: the
// same public calls in the same order, with spans and stat reads around
// them. The round's output digest must equal the untraced pass's (the
// benchmark fails the run otherwise), so any drift from the library code
// shows up as a failed run rather than as silently different numbers.

#include "traced_matrix.hh"

#include <algorithm>
#include <array>

#include "analysis/key_recovery.hh"
#include "analysis/roc.hh"
#include "attack/contention.hh"
#include "attack/victim_attack.hh"
#include "harness/session.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "workload/synth_spec.hh"

namespace unxpec::bench {

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

/** matrix.cc's workloadCycles, one span per step. */
double
workloadCycles(SystemConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    RunOptions options;
    options.maxInstructions = 40000;
    options.warmupInstructions = 8000;
    Span generate("workload.generate");
    const Program p = SynthSpec::generate(SynthSpec::profile("mcf_r"), 42);
    generate.finish();
    Span build("workload.core_build");
    Core core(cfg);
    build.finish();
    Span run("workload.run");
    const RunResult result = core.run(p, options);
    run.finish();
    recordCore(core);
    return static_cast<double>(result.cycles - result.warmupCycles);
}

double
trialWorkloadCycles(const TrialContext &ctx)
{
    return workloadCycles(
        Session::configFor(ctx.spec, Rng::deriveSeed(ctx.seed, 0)),
        Rng::deriveSeed(ctx.seed, 1));
}

} // namespace

TrialFn
tracedMatrixTrialFn(unsigned samples_per_class)
{
    return [samples_per_class](const TrialContext &ctx) {
        const bool contention =
            ctx.spec.label.find("/contention") != std::string::npos;

        std::vector<double> zeros;
        std::vector<double> ones;
        double cycles_per_sample = 0.0;
        {
            Span session_span("harness.session");
            Session session(ctx);
            session_span.finish();
            if (contention) {
                Span build("attack.build");
                ContentionAttack attack(session.core());
                build.finish();
                Span run("attack.run");
                zeros = attack.collect(0, samples_per_class);
                ones = attack.collect(1, samples_per_class);
                run.finish();
                cycles_per_sample = attack.cyclesPerSample();
            } else {
                Span build("attack.build");
                UnxpecAttack &attack = session.unxpec();
                build.finish();
                Span run("attack.run");
                zeros = attack.collect(0, samples_per_class);
                ones = attack.collect(1, samples_per_class);
                run.finish();
                cycles_per_sample = attack.cyclesPerSample();
            }
            recordMachine(session.machine());
            recordAttackCycles(cycles_per_sample);
        }

        TrialOutput out;
        Span roc("analysis.roc");
        const double raw = RocCurve::of(zeros, ones).auc();
        roc.finish();
        out.metric("auc", std::max(raw, 1.0 - raw));
        out.metric("delta_cycles", meanOf(ones) - meanOf(zeros));
        out.metric("cycles_per_sample", cycles_per_sample);
        out.metric("workload_cycles", trialWorkloadCycles(ctx));
        out.samples("latency0", std::move(zeros));
        out.samples("latency1", std::move(ones));
        return out;
    };
}

TrialFn
tracedVictimTrialFn(unsigned plaintexts)
{
    return [plaintexts](const TrialContext &ctx) {
        const std::size_t slash = ctx.spec.label.find('/');
        const std::string receiver = slash == std::string::npos
            ? ctx.spec.label
            : ctx.spec.label.substr(slash + 1);

        double fraction = 0.0;
        double recovered_bits = 0.0;
        double delta = 0.0;
        double rate = 0.0;
        double cycles_per_sample = 0.0;
        {
            Span session_span("harness.session");
            Session session(ctx);
            session_span.finish();
            Rng rng(Rng::deriveSeed(ctx.seed, 2));
            const double ghz = session.config().clockGHz;
            VictimAttackConfig vcfg;
            if (receiver == "victim-aes") {
                vcfg.plaintexts = std::min(std::max(plaintexts, 1u), 8u);
                Span build("attack.build");
                VictimAttack attack(session.core(), vcfg);
                std::array<std::uint8_t, 16> key;
                for (std::uint8_t &b : key)
                    b = static_cast<std::uint8_t>(rng.next());
                attack.setKey(key);
                build.finish();
                Span run("attack.run");
                const AesRecoveryResult res = attack.recoverAesKey();
                run.finish();
                unsigned correct = 0;
                for (unsigned b = 0; b < key.size(); ++b) {
                    correct += res.guess[b] == key[b];
                    delta += res.margin[b] / key.size();
                }
                fraction = correct / 16.0;
                recovered_bits = 8.0 * correct;
                rate = recoveredBitsPerSecond(
                    recovered_bits,
                    static_cast<double>(attack.totalCycles()), ghz);
                cycles_per_sample = attack.cyclesPerSample();
            } else {
                vcfg.victim.kind = VictimKind::RsaSqMul;
                Span build("attack.build");
                VictimAttack attack(session.core(), vcfg);
                const std::uint64_t exponent = rng.next();
                attack.setExponent(exponent);
                build.finish();
                Span run("attack.run");
                const RsaRecoveryResult res =
                    attack.recoverExponent(receiver == "victim-rsa-fu");
                run.finish();
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
            recordMachine(session.machine());
            recordAttackCycles(cycles_per_sample);
        }

        TrialOutput out;
        out.metric("auc", fraction);
        out.metric("recovered_bits", recovered_bits);
        out.metric("recovered_bits_per_sec", rate);
        out.metric("delta_cycles", delta);
        out.metric("cycles_per_sample", cycles_per_sample);
        out.metric("workload_cycles", trialWorkloadCycles(ctx));
        return out;
    };
}

} // namespace unxpec::bench
