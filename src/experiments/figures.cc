/**
 * @file
 * The paper's figures (2, 3, 6-13) and its §VI-B leakage rate as
 * experiment-table entries. The entries are at the bottom of the file.
 */

#include <algorithm>
#include <iterator>

#include "analysis/accuracy.hh"
#include "analysis/kde.hh"
#include "analysis/roc.hh"
#include "analysis/summary.hh"
#include "analysis/table.hh"
#include "attack/channel.hh"
#include "experiments/parts.hh"
#include "harness/session.hh"
#include "workload/synth_spec.hh"

namespace unxpec {

namespace {

/** Seed of the Figure-9 secret that Figures 10/11 leak. */
constexpr std::uint64_t kSecretSeed = 20220402; // HPCA'22 vibes

/** Per-trial receiver-training samples per secret value (Figs. 10/11). */
constexpr unsigned kLeakCalibration = 150;

/** Fig. 12's rollback constants; 0 is plain CleanupSpec. */
constexpr unsigned kConstants[] = {0, 25, 30, 35, 45, 65};

// --- Figures 2 and 13: branch resolution time ------------------------------
//
// Resolution time is constant for a fixed branching statement f(N),
// whatever the number of loads in the branch and the secret, and grows
// linearly with the number N of dependent accesses in f(N). The paper's
// gem5 numbers (Fig. 2) are ~110 cycles at N=1 rising to ~230 at N=3
// with +60/access (their chained accesses hit closer caches); ours are
// full memory misses, so the step is ~114 cycles. The linear/constant
// shape is the figure's claim. Fig. 13 repeats it on a real (noisy)
// processor, an Intel i7-8550U; the "noisy_host" mode and noise profile
// stand in for it (longer memory path, DRAM jitter, interrupts).

/** Every (f(N) accesses, secret, in-branch loads) point. */
template <typename Label>
std::vector<ExperimentSpec>
resolutionSpecs(const ExperimentSpec &base, Label label)
{
    std::vector<ExperimentSpec> specs;
    for (unsigned accesses = 1; accesses <= 3; ++accesses) {
        for (int secret = 0; secret <= 1; ++secret) {
            for (unsigned loads = 1; loads <= 5; ++loads) {
                ExperimentSpec spec = base;
                spec.label = label(accesses, secret, loads);
                spec.attackCfg.inBranchLoads = loads;
                spec.attackCfg.conditionAccesses = accesses;
                spec.with("accesses", accesses)
                    .with("secret", secret)
                    .with("loads", loads);
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

std::vector<ExperimentSpec>
fig02Specs(const ExperimentSpec &base, const HarnessOptions &)
{
    return resolutionSpecs(base, [](unsigned n, int secret, unsigned loads) {
        return "N=" + std::to_string(n) + " secret=" +
               std::to_string(secret) + " loads=" + std::to_string(loads);
    });
}

std::vector<ExperimentSpec>
fig13Specs(const ExperimentSpec &base, const HarnessOptions &)
{
    return resolutionSpecs(base, [](unsigned n, int secret, unsigned loads) {
        return std::to_string(n) + "acc/s" + std::to_string(secret) + "/" +
               std::to_string(loads) + "ld";
    });
}

/** The second (warm) round's resolution time, when its squash was
 *  found in the cleanup log. */
TrialFn
resolutionTrial(const HarnessOptions &)
{
    return [](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.setSecret(static_cast<int>(ctx.spec.param("secret")));
        attack.measureOnce(); // warm round
        attack.measureOnce();
        TrialOutput out;
        if (attack.lastDetail().valid) {
            out.metric("branch_resolution",
                       static_cast<double>(
                           attack.lastDetail().branchResolution));
        }
        return out;
    };
}

/** The f(N) x secret by loads table; `spread` adds each cell's stdev. */
void
printResolutionTable(std::ostream &os, const ExperimentResult &result,
                     bool spread)
{
    TextTable table({"condition", "secret", "1 load", "2", "3", "4", "5"});
    for (unsigned accesses = 1; accesses <= 3; ++accesses) {
        for (int secret = 0; secret <= 1; ++secret) {
            std::vector<std::string> row = {
                std::to_string(accesses) + " access" +
                    (accesses > 1 ? "es" : ""),
                std::to_string(secret)};
            for (unsigned loads = 1; loads <= 5; ++loads) {
                const MetricSeries *s =
                    result
                        .rowAt({{"accesses", static_cast<double>(accesses)},
                                {"secret", static_cast<double>(secret)},
                                {"loads", static_cast<double>(loads)}})
                        .metric("branch_resolution");
                if (s == nullptr)
                    row.push_back("n/a");
                else if (spread)
                    row.push_back(TextTable::num(s->summary.mean, 0) + "±" +
                                  TextTable::num(s->summary.stddev, 0));
                else
                    row.push_back(TextTable::num(s->summary.mean, 0));
            }
            table.addRow(row);
        }
    }
    table.print(os);
}

void
printFig02(std::ostream &os, const Experiment &e, const HarnessOptions &,
           const ExperimentResult &result)
{
    os << "=== " << e.title << " ===\n"
       << "rows: f(N) memory accesses x secret; "
       << "cols: loads inside branch\n\n";
    printResolutionTable(os, result, false);
    os << "\nClaims reproduced: constant across in-branch loads "
          "and secret; linear in f(N) accesses.\n";
}

void
printFig13(std::ostream &os, const Experiment &e,
           const HarnessOptions &options, const ExperimentResult &result)
{
    os << "=== " << e.title << " (i7-8550U stand-in; mean of "
       << options.reps << " rounds) ===\n\n";
    printResolutionTable(os, result, true);
    os << "\nClaim reproduced: even under host noise the "
          "resolution time is flat across loads/secrets\n"
          "and scales with f(N) — the channel's premise survives "
          "on real machines (§VI-D).\n";
}

// --- Figures 3 and 6: rollback timing difference ---------------------------
//
// The secret-dependent timing difference of the rollback against the
// number of squashed transient loads: without eviction sets (Fig. 3)
// and with eviction sets priming the target L1 sets (Fig. 6), which
// forces one restoration per squashed load. Fig. 6 also prints the
// invalidation-vs-restoration split from a sweep over both variants.

std::vector<ExperimentSpec>
fig03Specs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (unsigned loads = 1; loads <= 8; ++loads) {
        ExperimentSpec spec = base;
        spec.label = "loads=" + std::to_string(loads);
        spec.attackCfg.inBranchLoads = loads;
        spec.with("loads", loads);
        specs.push_back(spec);
    }
    return specs;
}

std::vector<ExperimentSpec>
fig06Specs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (const bool evsets : {true, false}) {
        for (unsigned loads = 1; loads <= 8; ++loads) {
            ExperimentSpec spec = base;
            spec.label = std::string(evsets ? "evset" : "plain") +
                         " loads=" + std::to_string(loads);
            spec.attack = unxpecVariant(evsets);
            spec.attackCfg.inBranchLoads = loads;
            spec.with("evset", evsets).with("loads", loads);
            specs.push_back(spec);
        }
    }
    return specs;
}

/** Secret 1's rollback minus secret 0's; `split` adds the round's
 *  restores and cleanup stall. */
TrialFn
deltaTrial(bool split)
{
    return [split](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.setSecret(0);
        const double zero = attack.measureOnce();
        attack.setSecret(1);
        const double one = attack.measureOnce();
        TrialOutput out;
        out.metric("delta_cycles", one - zero);
        if (split) {
            out.metric("restores",
                       static_cast<double>(attack.lastDetail().restores));
            out.metric("rollback_stall",
                       static_cast<double>(
                           attack.lastDetail().cleanupStall));
        }
        return out;
    };
}

TrialFn
fig03Trial(const HarnessOptions &)
{
    return deltaTrial(false);
}

TrialFn
fig06Trial(const HarnessOptions &)
{
    return deltaTrial(true);
}

void
printFig03(std::ostream &os, const Experiment &e, const HarnessOptions &,
           const ExperimentResult &result)
{
    os << "=== " << e.title << " ===\n\n";
    TextTable table({"squashed loads", "timing difference (cycles)",
                     "paper (approx)"});
    for (unsigned loads = 1; loads <= 8; ++loads) {
        const ResultRow &row = result.row(loads - 1);
        table.addRow({std::to_string(loads),
                      TextTable::num(row.mean("delta_cycles")),
                      TextTable::num(e.paperValue(row.label), 0)});
    }
    table.print(os);
    os << "\nClaim reproduced: a single transient load yields a ~"
       << TextTable::num(e.paperValue("loads=1"), 0)
       << "-cycle difference;\ngrowth with more loads is slow "
          "(pipelined invalidation).\n";
}

void
printFig06(std::ostream &os, const Experiment &e, const HarnessOptions &,
           const ExperimentResult &result)
{
    auto row = [&result](bool evsets, unsigned loads) -> const ResultRow & {
        return result.rowAt({{"evset", evsets ? 1.0 : 0.0},
                             {"loads", static_cast<double>(loads)}});
    };

    os << "=== " << e.title << " ===\n\n";
    TextTable table({"squashed loads", "difference (cycles)",
                     "restores/round", "rollback stall", "paper (approx)"});
    for (unsigned loads = 1; loads <= 8; ++loads) {
        const ResultRow &evset = row(true, loads);
        table.addRow({std::to_string(loads),
                      TextTable::num(evset.mean("delta_cycles")),
                      TextTable::num(evset.mean("restores"), 0),
                      TextTable::num(evset.mean("rollback_stall"), 0),
                      TextTable::num(e.paperValue(evset.label), 0)});
    }
    table.print(os);

    // Ablation: restoration's contribution = with-evset minus plain.
    os << "\nAblation (restoration contribution at n loads):\n";
    for (unsigned loads : {1u, 4u, 8u}) {
        const double with_es = row(true, loads).mean("delta_cycles");
        const double without = row(false, loads).mean("delta_cycles");
        os << "  n=" << loads << ": invalidation "
           << TextTable::num(without) << " + restoration "
           << TextTable::num(with_es - without) << " = "
           << TextTable::num(with_es) << " cycles\n";
    }
    os << "\nClaim reproduced: eviction sets enlarge the channel from ~"
       << TextTable::num(e.paperValue("plain loads=1"), 0) << " to "
       << TextTable::num(e.paperValue("evset loads=1"), 0) << ".."
       << TextTable::num(row(true, 8).mean("delta_cycles"), 0)
       << " cycles.\n";
}

// --- Figures 7 and 8: latency PDFs ------------------------------------------
//
// The probability density of the sender's observed latency per secret,
// estimated by KDE, without (Fig. 7) and with (Fig. 8) eviction sets.
// Each trial contributes an equal slice of the sample budget from its
// own Core; the report prints summary stats, the calibrated threshold,
// the ROC AUC and the ASCII KDE curves.

std::vector<ExperimentSpec>
pdfSpecs(const ExperimentSpec &base, const HarnessOptions &)
{
    ExperimentSpec spec = base;
    spec.label = "pdf";
    return {spec};
}

TrialFn
pdfTrial(const HarnessOptions &options)
{
    // The merged series is deterministic because trials concatenate
    // in rep order.
    const unsigned per_trial = static_cast<unsigned>(
        (options.scale + options.reps - 1) / options.reps);
    return [per_trial](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        TrialOutput out;
        out.samples("latency_secret0", attack.collect(0, per_trial));
        out.samples("latency_secret1", attack.collect(1, per_trial));
        return out;
    };
}

void
printPdf(std::ostream &os, const Experiment &e, const HarnessOptions &,
         const ExperimentResult &result)
{
    const ResultRow &row = result.row(0);
    const std::vector<double> &zeros = row.values("latency_secret0");
    const std::vector<double> &ones = row.values("latency_secret1");
    const Summary s0 = row.metric("latency_secret0")->summary;
    const Summary s1 = row.metric("latency_secret1")->summary;
    const double threshold = CovertChannel::calibrateThreshold(zeros, ones);

    os << "=== " << e.title << " (" << zeros.size()
       << " samples/secret) ===\n\n";
    TextTable table({"secret", "mean", "stdev", "median", "p25", "p75"});
    table.addRow({"0", TextTable::num(s0.mean), TextTable::num(s0.stddev),
                  TextTable::num(s0.median), TextTable::num(s0.p25),
                  TextTable::num(s0.p75)});
    table.addRow({"1", TextTable::num(s1.mean), TextTable::num(s1.stddev),
                  TextTable::num(s1.median), TextTable::num(s1.p25),
                  TextTable::num(s1.p75)});
    table.print(os);

    os << "\nmean timing difference: " << TextTable::num(s1.mean - s0.mean)
       << " cycles (paper: "
       << TextTable::num(e.paperValue("delta_cycles"), 0) << ")\n";
    os << "calibrated threshold:   " << TextTable::num(threshold)
       << " (paper: " << TextTable::num(e.paperValue("threshold"), 0)
       << ")\n";
    const RocCurve roc = RocCurve::of(zeros, ones);
    os << "channel AUC:            " << TextTable::num(roc.auc(), 3)
       << " (0.5 = blind, 1 = perfect; best J at threshold "
       << TextTable::num(roc.best().threshold) << ")\n\n";

    const auto curve0 = Kde::curve(zeros, 130, 250, 100);
    const auto curve1 = Kde::curve(ones, 130, 250, 100);
    printDensity(os, curve0, "secret=0", curve1, "secret=1");
}

// --- Figure 9: the secret Figures 10/11 leak --------------------------------
//
// The paper hardcodes one 1,000-bit random secret; we generate it from
// a fixed seed (the entry's default --seed), so Figures 10/11 leak the
// exact pattern printed here. Generation is pure Rng work: one "trial"
// whose seed is the master seed itself.

std::vector<ExperimentSpec>
fig09Specs(const ExperimentSpec &base, const HarnessOptions &options)
{
    ExperimentSpec spec = base;
    spec.with("bits", static_cast<double>(options.scale));
    return {spec};
}

TrialFn
fig09Trial(const HarnessOptions &options)
{
    const unsigned bits = static_cast<unsigned>(options.scale);
    return [bits](const TrialContext &ctx) {
        const std::vector<int> secret = randomSecret(ctx.masterSeed, bits);
        TrialOutput out;
        out.samples("bits", std::vector<double>(secret.begin(), secret.end()));
        return out;
    };
}

void
printFig09(std::ostream &os, const Experiment &e,
           const HarnessOptions &options, const ExperimentResult &result)
{
    const std::vector<double> &pattern = result.row(0).values("bits");
    os << "=== " << e.title << ": " << options.scale
       << "-bit random secret (seed " << options.seed << ") ===\n\n";
    unsigned ones = 0;
    for (unsigned i = 0; i < pattern.size(); ++i) {
        const int bit = static_cast<int>(pattern[i]);
        ones += bit;
        os << bit;
        if (i % 100 == 99)
            os << "\n";
    }
    os << "\npopulation: " << ones << " ones / " << pattern.size() - ones
       << " zeros\n";
}

// --- Figures 10 and 11: secret leakage --------------------------------------
//
// Leak the Figure-9 secret with one sample per bit, without (Fig. 10)
// and with (Fig. 11) eviction sets. The harness splits the bit string
// into `--reps` contiguous slices; each trial calibrates its own
// receiver on its own Core and leaks its slice, and the slices are
// reassembled in order, so the decoded string (and the accuracy) does
// not depend on `--threads`.

std::vector<ExperimentSpec>
leakSpecs(const ExperimentSpec &base, const HarnessOptions &options)
{
    ExperimentSpec spec = base;
    spec.label = "leak";
    spec.with("bits", static_cast<double>(options.scale));
    return {spec};
}

TrialFn
leakTrial(const HarnessOptions &options)
{
    const unsigned bits = static_cast<unsigned>(options.scale);
    const unsigned chunk = (bits + options.reps - 1) / options.reps;
    return [secret = randomSecret(kSecretSeed, bits), chunk,
            bits](const TrialContext &ctx) {
        const unsigned begin = std::min(bits, ctx.rep * chunk);
        const unsigned end = std::min(bits, begin + chunk);
        TrialOutput out;
        if (begin == end)
            return out;

        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        const double threshold = attack.calibrate(kLeakCalibration);
        const std::vector<int> slice(secret.begin() + begin,
                                     secret.begin() + end);
        const LeakResult leak = attack.leak(slice, threshold);

        out.metric("threshold", threshold);
        out.samples("guess", std::vector<double>(leak.guesses.begin(),
                                                 leak.guesses.end()));
        out.samples("latency", leak.latencies);
        return out;
    };
}

void
printLeak(std::ostream &os, const Experiment &e,
          const HarnessOptions &options, const ExperimentResult &result)
{
    const unsigned bits = static_cast<unsigned>(options.scale);
    const std::vector<int> secret = randomSecret(kSecretSeed, bits);
    const ResultRow &row = result.row(0);
    const std::vector<double> &guess_values = row.values("guess");
    const std::vector<double> &latencies = row.values("latency");
    const std::vector<int> guesses(guess_values.begin(), guess_values.end());
    const auto report = BitChannelReport::of(guesses, secret);

    os << "=== " << e.title << " (" << bits << " bits, 1 sample/bit) ===\n\n";
    os << "decode threshold (mean over " << options.reps
       << " receivers): " << TextTable::num(row.mean("threshold"))
       << " cycles\n\n";
    os << "first 100 bits (secret / guess / latency):\n";
    for (unsigned i = 0; i < std::min<unsigned>(100, bits); ++i) {
        os << "  bit " << i << ": " << secret[i] << " / " << guesses[i]
           << " / " << latencies[i]
           << (secret[i] != guesses[i] ? "   <-- error" : "") << "\n";
    }

    const Summary lat = Summary::of(latencies);
    os << "\nobserved latency: mean " << TextTable::num(lat.mean) << ", min "
       << TextTable::num(lat.min) << ", max " << TextTable::num(lat.max)
       << "\n";
    os << "correct bits: " << report.true0 + report.true1 << "/" << bits
       << "\n";
    os << "accuracy: " << TextTable::num(report.accuracy() * 100)
       << " % (paper: " << TextTable::num(e.paperValue("accuracy_pct"))
       << " %)\n";
    os << "per-class error: secret0 "
       << TextTable::num(report.zeroErrorRate() * 100) << " %, secret1 "
       << TextTable::num(report.oneErrorRate() * 100) << " %\n";
}

// --- Figure 12: constant-time rollback overhead -----------------------------
//
// The overhead of relaxed constant-time rollback over the SPEC-CPU-2017-
// like synthetic suite, for each of kConstants, normalized to the unsafe
// baseline. The real SPEC CPU 2017 binaries are license-protected (the
// paper's artifact excludes them too); see DESIGN.md for the
// substitution.

std::vector<ExperimentSpec>
fig12Specs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    const std::vector<WorkloadProfile> suite = SynthSpec::suite();
    for (std::size_t w = 0; w < suite.size(); ++w) {
        for (const unsigned constant : kConstants) {
            ExperimentSpec spec = base;
            spec.label = suite[w].name + "/const=" + std::to_string(constant);
            spec.workload = suite[w].name;
            spec.attack = "none";
            spec.tweak = [constant](SystemConfig &cfg) {
                cfg.cleanupTiming.constantTimeCycles = constant;
            };
            spec.with("workload", static_cast<double>(w))
                .with("constant", constant);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TrialFn
fig12Trial(const HarnessOptions &options)
{
    const std::uint64_t max_inst = options.scale;
    const std::uint64_t warmup = max_inst / 5;
    return [max_inst, warmup](const TrialContext &ctx) {
        // The unsafe baseline shares the trial seed so jittered
        // components (if any) see the same randomness.
        const double base =
            postWarmupCycles(makeDefense("unsafe"), ctx.spec.workload,
                             ctx.seed, max_inst, warmup);

        const Program program = SynthSpec::generate(
            SynthSpec::profile(ctx.spec.workload), kOverheadProgramSeed);
        RunOptions limits;
        limits.maxInstructions = max_inst;
        limits.warmupInstructions = warmup;
        Session session(ctx);
        const RunResult run = session.core().run(program, limits);
        const double measured =
            static_cast<double>(run.cycles - run.warmupCycles);

        TrialOutput out;
        out.metric("overhead_pct", (measured / base - 1.0) * 100.0);
        out.metric("cycles", measured);
        out.metric("baseline_cycles", base);
        return out;
    };
}

void
printFig12(std::ostream &os, const Experiment &e,
           const HarnessOptions &options, const ExperimentResult &result)
{
    os << "=== " << e.title << " (" << options.scale
       << " insts/benchmark, " << options.scale / 5 << " warmup) ===\n\n";

    TextTable table({"benchmark", "no const", "const=25", "const=30",
                     "const=35", "const=45", "const=65"});
    const std::vector<WorkloadProfile> suite = SynthSpec::suite();
    std::vector<double> sums(std::size(kConstants), 0.0);
    for (std::size_t w = 0; w < suite.size(); ++w) {
        std::vector<std::string> row = {suite[w].name};
        for (std::size_t c = 0; c < std::size(kConstants); ++c) {
            const double overhead =
                result.rowAt({{"workload", static_cast<double>(w)},
                              {"constant", kConstants[c]}})
                    .mean("overhead_pct");
            sums[c] += overhead;
            row.push_back(TextTable::num(overhead) + "%");
        }
        table.addRow(row);
    }

    std::vector<std::string> avg = {"AVERAGE"};
    for (const double sum : sums)
        avg.push_back(TextTable::num(sum / suite.size()) + "%");
    table.addRow(avg);
    table.print(os);

    os << "\npaper averages: " << TextTable::num(e.paperValue("const=25"))
       << "% (const=25) ... " << TextTable::num(e.paperValue("const=65"))
       << "% (const=65); plain CleanupSpec ~"
       << TextTable::num(e.paperValue("no const"), 0) << "%\n";
}

// --- §VI-B: leakage rate ----------------------------------------------------
//
// Simulated cycles per sample for both unXpec variants, converted to
// samples/s and bits/s at the 2 GHz clock. The rate scales inversely
// with the POISON length, so a sweep over mistraining counts is
// printed beside the paper's operating point.

std::vector<ExperimentSpec>
rateSpecs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (const bool evsets : {false, true}) {
        for (const unsigned mistrain : {8u, 16u, 32u, 56u}) {
            ExperimentSpec spec = base;
            spec.label = std::string(evsets ? "eviction sets" : "plain") +
                         "/mistrain=" + std::to_string(mistrain);
            spec.attack = unxpecVariant(evsets);
            spec.attackCfg.mistrainIterations = mistrain;
            spec.with("evset", evsets ? 1 : 0).with("mistrain", mistrain);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TrialFn
rateTrial(const HarnessOptions &options)
{
    const unsigned samples = static_cast<unsigned>(options.scale);
    const double clock_ghz = SystemConfig::makeDefault().clockGHz;
    return [samples, clock_ghz](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.collect(0, samples / 2);
        attack.collect(1, samples - samples / 2);
        const double cycles = attack.cyclesPerSample();
        TrialOutput out;
        out.metric("cycles_per_sample", cycles);
        out.metric("samples_per_sec",
                   LeakageRate::samplesPerSecond(cycles, clock_ghz));
        return out;
    };
}

void
printRate(std::ostream &os, const Experiment &e, const HarnessOptions &,
          const ExperimentResult &result)
{
    os << "=== " << e.title << ", " << SystemConfig::makeDefault().clockGHz
       << " GHz clock ===\n\n";

    TextTable table({"variant", "mistrain iters", "cycles/sample",
                     "samples/s", "Kbps (1 sample/bit)"});
    for (const ResultRow &row : result.rows) {
        const MetricSeries *cycles = row.metric("cycles_per_sample");
        const MetricSeries *rate = row.metric("samples_per_sec");
        table.addRow(
            {row.param("evset") != 0 ? "eviction sets" : "plain",
             TextTable::num(row.param("mistrain"), 0),
             cycles ? TextTable::num(cycles->summary.mean, 0) : "n/a",
             rate ? TextTable::num(rate->summary.mean, 0) : "n/a",
             rate ? TextTable::num(rate->summary.mean / 1000.0) : "n/a"});
    }
    table.print(os);

    const std::string kbps = TextTable::num(e.paperValue("kbps"), 0);
    os << "\nBoth variants sample at the same rate (priming is "
          "amortized: rollback re-primes the sets).\n"
          "Paper: ~"
       << kbps << ",000 samples/s == " << kbps
       << " Kbps; that operating point corresponds to the heavier\n"
          "POISON loop (~56 in-bounds trainings/round). Leaner rounds "
          "leak proportionally faster.\n";
}

} // namespace

std::vector<Experiment>
figureExperiments()
{
    return {
        {.name = "fig02_branch_resolution",
         .description = "Figure 2: branch resolution time vs f(N) accesses, "
                        "in-branch loads, and secret",
         .title = "Figure 2: branch resolution time (cycles)",
         .specs = fig02Specs,
         .trial = resolutionTrial,
         .print = printFig02},
        {.name = "fig03_timing_difference",
         .description = "Figure 3: rollback timing difference vs squashed "
                        "transient loads, no eviction sets",
         .title = "Figure 3: rollback timing difference, no eviction sets",
         .reps = 5,
         .specs = fig03Specs,
         .trial = fig03Trial,
         .print = printFig03,
         .paper = {{"loads=1", 22}, {"loads=2", 21}, {"loads=3", 22},
                   {"loads=4", 23}, {"loads=5", 23}, {"loads=6", 24},
                   {"loads=7", 25}, {"loads=8", 25}}},
        {.name = "fig06_timing_difference_evset",
         .description = "Figure 6: rollback timing difference vs squashed "
                        "loads, with eviction sets (+ ablation split)",
         .title = "Figure 6: rollback timing difference, with eviction sets",
         .reps = 5,
         .specs = fig06Specs,
         .trial = fig06Trial,
         .print = printFig06,
         .paper = {{"evset loads=1", 32}, {"evset loads=2", 37},
                   {"evset loads=3", 41}, {"evset loads=4", 46},
                   {"evset loads=5", 51}, {"evset loads=6", 55},
                   {"evset loads=7", 60}, {"evset loads=8", 64},
                   {"plain loads=1", 22}}},
        {.name = "fig07_pdf_no_evset",
         .description = "Figure 7: latency PDF per secret, no eviction sets",
         .title = "Figure 7: latency PDF, no eviction sets",
         .reps = 8,
         .noise = "evaluation",
         .scaleHelp = "latency samples per secret",
         .scale = 1000,
         .attack = "unxpec",
         .specs = pdfSpecs,
         .trial = pdfTrial,
         .print = printPdf,
         .paper = {{"delta_cycles", 22}, {"threshold", 178}}},
        {.name = "fig08_pdf_evset",
         .description = "Figure 8: latency PDF per secret, with eviction sets",
         .title = "Figure 8: latency PDF, with eviction sets",
         .reps = 8,
         .noise = "evaluation",
         .scaleHelp = "latency samples per secret",
         .scale = 1000,
         .attack = "unxpec-evset",
         .specs = pdfSpecs,
         .trial = pdfTrial,
         .print = printPdf,
         .paper = {{"delta_cycles", 32}, {"threshold", 183}}},
        {.name = "fig09_secret_bits",
         .description = "Figure 9: the fixed 1,000-bit random secret leaked "
                        "by Figures 10/11",
         .title = "Figure 9",
         .seed = kSecretSeed,
         .scaleHelp = "number of secret bits",
         .scale = 1000,
         .specs = fig09Specs,
         .trial = fig09Trial,
         .print = printFig09},
        {.name = "fig10_leak_no_evset",
         .description = "Figure 10: leak the 1,000-bit secret, one sample "
                        "per bit, no eviction sets",
         .title = "Figure 10: secret leakage, no eviction sets",
         .reps = 8,
         .noise = "evaluation",
         .scaleHelp = "secret bits to leak",
         .scale = 1000,
         .attack = "unxpec",
         .specs = leakSpecs,
         .trial = leakTrial,
         .print = printLeak,
         .paper = {{"accuracy_pct", 86.7}}},
        {.name = "fig11_leak_evset",
         .description = "Figure 11: leak the 1,000-bit secret, one sample "
                        "per bit, with eviction sets",
         .title = "Figure 11: secret leakage, with eviction sets",
         .reps = 8,
         .noise = "evaluation",
         .scaleHelp = "secret bits to leak",
         .scale = 1000,
         .attack = "unxpec-evset",
         .specs = leakSpecs,
         .trial = leakTrial,
         .print = printLeak,
         .paper = {{"accuracy_pct", 91.6}}},
        {.name = "fig12_const_rollback_overhead",
         .description = "Figure 12: constant-time rollback overhead over "
                        "the synthetic SPEC-2017 suite",
         .title = "Figure 12: constant-time rollback overhead",
         .scaleHelp = "instructions per benchmark",
         .scale = 100000,
         .specs = fig12Specs,
         .trial = fig12Trial,
         .print = printFig12,
         .paper = {{"const=25", 22.4}, {"const=65", 72.8}, {"no const", 5}}},
        {.name = "fig13_noisy_host",
         .description = "Figure 13: branch resolution on a noisy host "
                        "(i7-8550U stand-in)",
         .title = "Figure 13: branch resolution on a noisy host",
         .reps = 20,
         .mode = "noisy_host",
         .noise = "noisy_host",
         .specs = fig13Specs,
         .trial = resolutionTrial,
         .print = printFig13},
        {.name = "leakage_rate",
         .description = "Leakage rate (paper §VI-B): cycles per "
                        "covert-channel sample and resulting bits/s",
         .title = "Leakage rate (§VI-B)",
         .scaleHelp = "samples per measurement",
         .scale = 20,
         .specs = rateSpecs,
         .trial = rateTrial,
         .print = printRate,
         .paper = {{"kbps", 140}}},
    };
}

} // namespace unxpec
