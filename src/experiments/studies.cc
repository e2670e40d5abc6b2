/**
 * @file
 * The studies beyond the paper's figures (defense ablation, §VI-D
 * robustness, §V-C attack tuning) and the two matrix campaigns (attack
 * x defense, real-secret victims) as experiment-table entries. The
 * entries are at the bottom of the file.
 */

#include <algorithm>
#include <fstream>

#include "analysis/accuracy.hh"
#include "analysis/matrix_report.hh"
#include "analysis/table.hh"
#include "attack/spectre_v1.hh"
#include "experiments/parts.hh"
#include "harness/matrix.hh"
#include "harness/session.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "workload/synth_spec.hh"

namespace unxpec {

namespace {

// --- Defense-landscape ablation ---------------------------------------------
//
// The whole defense landscape the paper's introduction surveys, on one
// table. For each scheme: does Spectre v1 (Flush+Reload) leak, the
// unXpec secret-dependent timing difference, and the workload overhead
// against the unsafe baseline. The paper's narrative falls out of the
// rows: Invisible defenses are safe from both attacks but slow; Undo is
// fast but unXpec breaks it; constant-time rollback fixes Undo at
// Invisible-like cost.

const std::vector<std::pair<const char *, const char *>> kSchemes = {
    {"unsafe", "UnsafeBaseline"},
    {"invisispec", "InvisiSpec (Invisible)"},
    {"delay_on_miss", "DelayOnMiss (Invisible)"},
    {"cleanup_l1", "Cleanup_FOR_L1 (Undo)"},
    {"cleanup_l1l2", "Cleanup_FOR_L1L2 (Undo)"},
    {"cleanup_const65", "Cleanup + const-65 rollback"},
    {"cleanup_fuzzy40", "Cleanup + fuzzy<=40 (SVII)"},
};

bool
spectreLeaks(SystemConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    Core core(cfg);
    SpectreV1 spectre(core);
    spectre.setSecretByte(42);
    const SpectreResult result = spectre.leakByte();
    return result.cacheHitSignal && result.guessedByte == 42;
}

double
unxpecDelta(const ExperimentSpec &spec, std::uint64_t seed)
{
    Session session(spec, seed);
    UnxpecAttack &attack = session.unxpec();
    double zeros = 0.0, ones = 0.0;
    for (int r = 0; r < 3; ++r) {
        attack.setSecret(0);
        zeros += attack.measureOnce();
        attack.setSecret(1);
        ones += attack.measureOnce();
    }
    return (ones - zeros) / 3.0;
}

double
workloadOverhead(const SystemConfig &cfg, std::uint64_t seed)
{
    const std::vector<const char *> picks = {"mcf_r", "leela_r", "gcc_r",
                                             "imagick_r"};
    double total = 0.0;
    for (const char *name : picks) {
        const double base = postWarmupCycles(makeDefense("unsafe"), name, seed);
        total += postWarmupCycles(cfg, name, seed) / base;
    }
    return (total / picks.size() - 1.0) * 100.0;
}

std::vector<ExperimentSpec>
ablationSpecs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        ExperimentSpec spec = base;
        spec.label = kSchemes[i].second;
        spec.defense = kSchemes[i].first;
        spec.with("scheme", static_cast<double>(i));
        specs.push_back(std::move(spec));
    }
    return specs;
}

TrialFn
ablationTrial(const HarnessOptions &)
{
    return [](const TrialContext &ctx) {
        // Each probe gets its own sub-seed so adding a probe never
        // perturbs the others.
        const SystemConfig cfg =
            Session::configFor(ctx.spec, Rng::deriveSeed(ctx.seed, 0));
        TrialOutput out;
        out.metric("spectre_leaks",
                   spectreLeaks(cfg, Rng::deriveSeed(ctx.seed, 1)) ? 1.0
                                                                   : 0.0);
        out.metric("unxpec_delta",
                   unxpecDelta(ctx.spec, Rng::deriveSeed(ctx.seed, 2)));
        out.metric("workload_overhead_pct",
                   workloadOverhead(cfg, Rng::deriveSeed(ctx.seed, 3)));
        return out;
    };
}

void
printAblation(std::ostream &os, const Experiment &e, const HarnessOptions &,
              const ExperimentResult &result)
{
    os << "=== " << e.title << " ===\n\n";
    TextTable table({"scheme", "Spectre v1", "unXpec delta (cyc)",
                     "workload overhead"});
    for (const ResultRow &row : result.rows) {
        table.addRow({row.label,
                      row.mean("spectre_leaks") > 0.5 ? "LEAKS" : "blocked",
                      TextTable::num(row.mean("unxpec_delta")),
                      TextTable::num(row.mean("workload_overhead_pct")) +
                          "%"});
    }
    table.print(os);

    os << "\nReading guide: Undo schemes stop Spectre cheaply but "
          "expose the ~22-cycle rollback channel;\nInvisible "
          "schemes and constant-time rollback close both channels "
          "at real performance cost.\n(unXpec delta under fuzzy "
          "noise is a noisy mean: the channel is blurred, not "
          "shifted.)\n";
}

// --- §VI-D robustness --------------------------------------------------------
//
// Single- and multi-sample decode accuracy under increasing system
// noise, for both unXpec variants. Reproduces the section's three
// claims: (1) the cleanup stall itself is noise-immune (the core is
// stalled), (2) noise hits both secrets alike, (3) more samples per bit
// buy accuracy back.

/** Seed of robustness_noise's fixed random secret. */
constexpr std::uint64_t kRobustnessSecretSeed = 4242;

constexpr unsigned kRobustnessCalibration = 120;

const std::vector<std::pair<const char *, const char *>> kNoiseLevels = {
    {"quiet", "quiet"},
    {"evaluation", "evaluation"},
    {"noisy host", "noisy_host"},
};

std::vector<ExperimentSpec>
robustnessSpecs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (std::size_t n = 0; n < kNoiseLevels.size(); ++n) {
        for (const bool evsets : {false, true}) {
            for (const unsigned samples : {1u, 3u, 5u}) {
                ExperimentSpec spec = base;
                spec.label = std::string(kNoiseLevels[n].first) + "/" +
                             (evsets ? "evset" : "plain") + "/" +
                             std::to_string(samples) + "spb";
                spec.noise = kNoiseLevels[n].second;
                spec.attack = unxpecVariant(evsets);
                spec.with("noise_level", static_cast<double>(n))
                    .with("evset", evsets ? 1 : 0)
                    .with("samples_per_bit", samples);
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

TrialFn
robustnessTrial(const HarnessOptions &options)
{
    const unsigned bits = static_cast<unsigned>(options.scale);
    return [bits](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        const double threshold = attack.calibrate(kRobustnessCalibration);
        const std::vector<int> secret =
            randomSecret(kRobustnessSecretSeed, bits);
        const unsigned samples =
            static_cast<unsigned>(ctx.spec.param("samples_per_bit", 1));
        const LeakResult leak = attack.leak(secret, threshold, samples);
        TrialOutput out;
        out.metric("accuracy", leak.accuracy);
        return out;
    };
}

void
printRobustness(std::ostream &os, const Experiment &e,
                const HarnessOptions &options, const ExperimentResult &result)
{
    os << "=== " << e.title << " (" << options.scale << " bits) ===\n\n";

    TextTable table({"noise", "variant", "1 sample", "3 samples",
                     "5 samples"});
    for (std::size_t n = 0; n < kNoiseLevels.size(); ++n) {
        for (const bool evsets : {false, true}) {
            std::vector<std::string> row = {
                kNoiseLevels[n].first, evsets ? "eviction sets" : "plain"};
            for (const unsigned samples : {1u, 3u, 5u}) {
                const double accuracy =
                    result
                        .rowAt({{"noise_level", static_cast<double>(n)},
                                {"evset", evsets ? 1.0 : 0.0},
                                {"samples_per_bit",
                                 static_cast<double>(samples)}})
                        .mean("accuracy");
                row.push_back(TextTable::num(accuracy * 100.0) + "%");
            }
            table.addRow(row);
        }
    }
    table.print(os);

    os << "\nClaims reproduced: quiet decoding is exact; under "
          "noise the eviction-set variant's\nlarger margin wins; "
          "majority voting recovers accuracy at proportional "
          "rate cost.\n";
}

// --- §V-C attack parameterization ------------------------------------------
//
// Trade the number of in-branch loads against rate and accuracy.
// Reproduces the section's guidance: without eviction sets a single
// load already separates the secrets, so fewer loads maximize goodput;
// with eviction sets extra loads buy margin (and noisy-environment
// accuracy) at proportional rate cost.

/** Seed of attack_tuning's fixed random secret. */
constexpr std::uint64_t kTuningSecretSeed = 31337;

constexpr unsigned kTuningCalibration = 100;

std::vector<ExperimentSpec>
tuningSpecs(const ExperimentSpec &base, const HarnessOptions &)
{
    std::vector<ExperimentSpec> specs;
    for (const bool evsets : {false, true}) {
        for (const unsigned loads : {1u, 2u, 4u, 8u}) {
            ExperimentSpec spec = base;
            spec.label = std::string(evsets ? "evset" : "plain") +
                         "/loads=" + std::to_string(loads);
            spec.attack = unxpecVariant(evsets);
            spec.attackCfg.inBranchLoads = loads;
            spec.with("evset", evsets ? 1 : 0).with("loads", loads);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TrialFn
tuningTrial(const HarnessOptions &options)
{
    const unsigned bits = static_cast<unsigned>(options.scale);
    return [bits](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        const double threshold = attack.calibrate(kTuningCalibration);
        const LeakResult leak =
            attack.leak(randomSecret(kTuningSecretSeed, bits), threshold);

        const double rate_kbps =
            LeakageRate::bitsPerSecond(attack.cyclesPerSample(),
                                       session.core().config().clockGHz) /
            1000.0;
        TrialOutput out;
        out.metric("accuracy", leak.accuracy);
        out.metric("rate_kbps", rate_kbps);
        out.metric("goodput_kbps", rate_kbps * leak.accuracy);
        return out;
    };
}

void
printTuning(std::ostream &os, const Experiment &e,
            const HarnessOptions &options, const ExperimentResult &result)
{
    os << "=== " << e.title << " (" << options.scale
       << " bits/point, evaluation noise) ===\n\n";

    TextTable table({"variant", "loads", "accuracy", "rate (Kbps)",
                     "goodput (Kbps)"});
    for (const ResultRow &row : result.rows) {
        table.addRow({row.param("evset") != 0 ? "eviction sets" : "plain",
                      TextTable::num(row.param("loads"), 0),
                      TextTable::num(row.mean("accuracy") * 100) + "%",
                      TextTable::num(row.mean("rate_kbps")),
                      TextTable::num(row.mean("goodput_kbps"))});
    }
    table.print(os);

    os << "\nReading: plain unXpec gains little accuracy from "
          "extra loads (Fig. 3's flat growth),\nso one load "
          "maximizes goodput; eviction sets turn extra loads "
          "into real margin (Fig. 6),\nwhich pays off only when "
          "noise would otherwise dominate.\n";
}

// --- The matrix campaigns ---------------------------------------------------
//
// matrix_campaign crosses every defense in the zoo (or the curated
// default subset) with both receiver families: the unXpec rollback-
// timing channel and the SpectreRewind-style FU contention channel.
// Its point: "invisible to the cache" is not "invisible". SafeSpec,
// SpecBox and CacheSquash all close the unXpec cache channel (AUC ->
// 0.5), but the contention receiver, which never touches memory
// speculatively, still reads the secret through the multiplier's busy
// window on every one of them.
//
// victim_recovery recovers real secrets end to end: an AES-128 T-table
// first round and an RSA square-and-multiply ladder, emitted as genuine
// assembler listings with the secret planted in simulated memory. Every
// (defense, receiver) cell runs the complete attack (mistrain,
// transient out-of-bounds read of the real key material, receiver
// measurement, ranking) and reports how much of the secret came back.
// Under the unsafe baseline the full 16-byte AES key and all 64
// exponent bits are recovered; undo defenses degrade the recovery
// toward guessing; and the FU-contention receiver (victim-rsa-fu)
// re-opens the RSA channel on every defense that only hides cache
// state.
//
// Both write BASE.json (schema unxpec-matrix-v1; victim cells add
// recovered_bits_per_sec) and BASE.md, BASE being the positional text
// argument. MATRIX.md and BENCH_victim.json are checked-in copies.

/** Write the matrix report as BASE.json and BASE.md. */
bool
writeMatrixReport(const HarnessOptions &options,
                  const ExperimentResult &result)
{
    const MatrixReport report = MatrixReport::fromResult(result);
    bool wrote = true;
    for (const bool json : {true, false}) {
        const std::string path = options.text + (json ? ".json" : ".md");
        std::ofstream os(path);
        if (!os) {
            warn("cannot open '", path, "' for writing");
            wrote = false;
        } else if (json) {
            report.writeJson(os);
        } else {
            report.writeMarkdown(os);
        }
    }
    return wrote;
}

std::vector<ExperimentSpec>
matrixCampaignSpecs(const ExperimentSpec &base, const HarnessOptions &options)
{
    return matrixSpecs(base, options.matrix);
}

TrialFn
matrixTrial(const HarnessOptions &options)
{
    return matrixTrialFn(static_cast<unsigned>(options.scale));
}

void
printMatrix(std::ostream &os, const Experiment &e,
            const HarnessOptions &options, const ExperimentResult &result)
{
    const MatrixReport report = MatrixReport::fromResult(result);
    os << "=== " << e.title << " ===\n\n";
    TextTable table({"defense", "unxpec AUC", "contention AUC",
                     "overhead"});
    for (const std::string &defense : report.defenses()) {
        const MatrixCell *cache = report.cell(defense, "unxpec");
        const MatrixCell *fu = report.cell(defense, "contention");
        double overhead = 0.0;
        if (cache)
            overhead = std::max(overhead, cache->overheadPct);
        if (fu)
            overhead = std::max(overhead, fu->overheadPct);
        table.addRow({defense,
                      cache ? TextTable::num(cache->auc) : "-",
                      fu ? TextTable::num(fu->auc) : "-",
                      TextTable::num(overhead) + "%"});
    }
    table.print(os);
    os << "\nArtifacts: " << options.text << ".json, " << options.text
       << ".md\nReading guide: AUC 1.0 = channel wide open, 0.5 = "
          "closed. Cache defenses close the unxpec column; only "
          "a contention-aware defense would close the contention "
          "column.\n";
}

std::vector<ExperimentSpec>
victimCampaignSpecs(const ExperimentSpec &base, const HarnessOptions &options)
{
    return victimSpecs(base, options.matrix);
}

TrialFn
victimTrial(const HarnessOptions &options)
{
    return victimTrialFn(static_cast<unsigned>(options.scale));
}

/** A cell's recovered fraction as a percentage, or "-". */
std::string
recoveredPct(const MatrixCell *cell)
{
    return cell == nullptr ? "-" : TextTable::num(cell->auc * 100.0) + "%";
}

void
printVictim(std::ostream &os, const Experiment &e,
            const HarnessOptions &options, const ExperimentResult &result)
{
    const MatrixReport report = MatrixReport::fromResult(result);
    os << "=== " << e.title << " ===\n\n";
    TextTable table({"defense", "AES key", "RSA exp", "RSA exp (FU)",
                     "bits/s (best)"});
    for (const std::string &defense : report.defenses()) {
        const MatrixCell *aes = report.cell(defense, "victim-aes");
        const MatrixCell *rsa = report.cell(defense, "victim-rsa");
        const MatrixCell *fu = report.cell(defense, "victim-rsa-fu");
        double best = 0.0;
        for (const MatrixCell *c : {aes, rsa, fu}) {
            if (c != nullptr && c->recoveredBitsPerSec > best)
                best = c->recoveredBitsPerSec;
        }
        table.addRow({defense, recoveredPct(aes), recoveredPct(rsa),
                      recoveredPct(fu), TextTable::num(best)});
    }
    table.print(os);
    os << "\nArtifacts: " << options.text << ".json, " << options.text
       << ".md\nReading guide: 100% = the whole planted secret "
          "recovered (16/16 AES key bytes, 64/64 exponent "
          "bits); ~50% RSA / ~0% AES = guessing. Cache "
          "defenses empty the first two columns; only the FU "
          "column survives them (non-pipelined multiplier).\n";
}

} // namespace

std::vector<Experiment>
studyExperiments()
{
    return {
        {.name = "ablation_defenses",
         .description = "Defense-landscape ablation: Spectre v1, unXpec "
                        "delta, and workload overhead per scheme",
         .title = "Defense-landscape ablation",
         .specs = ablationSpecs,
         .trial = ablationTrial,
         .print = printAblation},
        {.name = "robustness_noise",
         .description = "SVI-D robustness: decode accuracy vs noise level "
                        "and samples per bit",
         .title = "SVI-D robustness: accuracy vs noise and samples/bit",
         .scaleHelp = "secret bits per point",
         .scale = 150,
         .specs = robustnessSpecs,
         .trial = robustnessTrial,
         .print = printRobustness},
        {.name = "attack_tuning",
         .description = "SV-C attack parameterization: loads and POISON "
                        "length vs rate and accuracy",
         .title = "SV-C attack parameterization",
         .noise = "evaluation",
         .scaleHelp = "secret bits per point",
         .scale = 200,
         .specs = tuningSpecs,
         .trial = tuningTrial,
         .print = printTuning},
        {.name = "matrix_campaign",
         .description = "Attack x defense matrix: AUC, timing delta, and "
                        "workload overhead per (defense, receiver) cell",
         .title = "Attack x defense matrix",
         .mode = "unsafe",
         .scaleHelp = "receiver samples per secret class per trial",
         .scale = 24,
         .matrix = true,
         .textHelp = "output base path (writes BASE.json and BASE.md)",
         .text = "matrix",
         .specs = matrixCampaignSpecs,
         .trial = matrixTrial,
         .print = printMatrix,
         .artifacts = writeMatrixReport},
        {.name = "victim_recovery",
         .description = "Real-secret victims: AES T-table key bytes and RSA "
                        "exponent bits recovered end to end per defense",
         .title = "Real-secret recovery matrix",
         .mode = "unsafe",
         .scaleHelp = "known plaintexts per AES key byte (1..8)",
         .scale = 2,
         .matrix = true,
         .textHelp = "output base path (writes BASE.json and BASE.md)",
         .text = "victim",
         .specs = victimCampaignSpecs,
         .trial = victimTrial,
         .print = printVictim,
         .artifacts = writeMatrixReport},
    };
}

} // namespace unxpec
