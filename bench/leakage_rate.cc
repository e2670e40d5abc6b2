/**
 * @file
 * §VI-B: leakage rate. Measures simulated cycles per sample for both
 * unXpec variants and converts to samples/s and bits/s at the 2 GHz
 * clock. The paper reports ~140,000 samples/s (140 Kbps at one sample
 * per bit) with its round structure; the rate scales inversely with
 * the POISON length, so a sweep over mistraining counts is printed.
 */

#include <iostream>

#include "analysis/accuracy.hh"
#include "analysis/table.hh"
#include "harness/cli.hh"
#include "harness/session.hh"

using namespace unxpec;

int
main(int argc, char **argv)
{
    HarnessCli cli("leakage_rate",
                   "Leakage rate (paper §VI-B): cycles per covert-channel "
                   "sample and resulting bits/s");
    cli.scaleOption("samples per measurement", 20);
    const HarnessOptions opt = cli.parse(argc, argv);
    const unsigned samples = static_cast<unsigned>(opt.scale);

    std::vector<ExperimentSpec> specs;
    for (const bool evsets : {false, true}) {
        for (const unsigned mistrain : {8u, 16u, 32u, 56u}) {
            ExperimentSpec spec = cli.baseSpec(opt);
            spec.label = std::string(evsets ? "eviction sets" : "plain") +
                         "/mistrain=" + std::to_string(mistrain);
            spec.attack = evsets ? "unxpec-evset" : "unxpec";
            spec.attackCfg.mistrainIterations = mistrain;
            spec.with("evset", evsets ? 1 : 0).with("mistrain", mistrain);
            specs.push_back(std::move(spec));
        }
    }

    const double clock_ghz = SystemConfig::makeDefault().clockGHz;
    const ExperimentResult result = runExperiment(
        cli, opt, specs, [samples, clock_ghz](const TrialContext &ctx) {
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
        });

    std::cout << "=== Leakage rate (§VI-B), " << clock_ghz
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
    table.print(std::cout);

    std::cout << "\nBoth variants sample at the same rate (priming is "
                 "amortized: rollback re-primes the sets).\n"
                 "Paper: ~140,000 samples/s == 140 Kbps; that operating "
                 "point corresponds to the heavier\nPOISON loop "
                 "(~56 in-bounds trainings/round). Leaner rounds leak "
                 "proportionally faster.\n";
    return finishExperiment(result, opt);
}
