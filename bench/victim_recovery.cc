/**
 * @file
 * End-to-end secret recovery from real victims: an AES-128 T-table
 * first round and an RSA square-and-multiply ladder, both emitted as
 * genuine assembler listings with the secret planted in simulated
 * memory. Every (defense, receiver) cell runs the complete attack —
 * mistrain, transient out-of-bounds read of the real key material,
 * receiver measurement, ranking — and reports how much of the planted
 * secret came back.
 *
 * This is the paper's claim made concrete: under the unsafe baseline
 * the full 16-byte AES key and all 64 exponent bits are recovered;
 * undo defenses degrade the recovery toward guessing; and the
 * FU-contention receiver (victim-rsa-fu) re-opens the RSA channel on
 * every defense that only hides cache state.
 *
 * Artifacts: <out>.json (schema unxpec-matrix-v1, with the optional
 * recovered_bits_per_sec field per cell; BENCH_victim.json is a
 * checked-in copy CI diffs) and <out>.md. The sweep rides the
 * ordinary harness: --matrix sweeps the whole defense zoo, and
 * --threads / --campaign / --resume work because the campaign is just
 * a labeled spec sweep.
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/matrix_report.hh"
#include "analysis/table.hh"
#include "harness/cli.hh"
#include "harness/matrix.hh"
#include "sim/log.hh"

using namespace unxpec;

namespace {

bool
writeArtifact(const MatrixReport &report, const std::string &path,
              bool json)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open '", path, "' for writing");
        return false;
    }
    if (json)
        report.writeJson(os);
    else
        report.writeMarkdown(os);
    return true;
}

std::string
cellNum(const MatrixCell *cell, double MatrixCell::*field, int pct)
{
    if (cell == nullptr)
        return "-";
    return TextTable::num(cell->*field * (pct ? 100.0 : 1.0)) +
           (pct ? "%" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessCli cli("victim_recovery",
                   "Real-secret victims: AES T-table key bytes and RSA "
                   "exponent bits recovered end to end per defense");
    cli.defaultMode("unsafe")
        .scaleOption("known plaintexts per AES key byte (1..8)", 2)
        .matrixOption()
        .textArg("output base path (writes BASE.json and BASE.md)",
                 "victim");
    const HarnessOptions opt = cli.parse(argc, argv);

    const std::vector<ExperimentSpec> specs =
        victimSpecs(cli.baseSpec(opt), opt.matrix);
    const ExperimentResult result = runExperiment(
        cli, opt, specs,
        victimTrialFn(static_cast<unsigned>(opt.scale)));

    const MatrixReport report = MatrixReport::fromResult(result);
    bool wrote = writeArtifact(report, opt.text + ".json", true);
    wrote = writeArtifact(report, opt.text + ".md", false) && wrote;

    std::cout << "=== Real-secret recovery matrix ===\n\n";
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
        table.addRow({defense,
                      cellNum(aes, &MatrixCell::auc, 1),
                      cellNum(rsa, &MatrixCell::auc, 1),
                      cellNum(fu, &MatrixCell::auc, 1),
                      TextTable::num(best)});
    }
    table.print(std::cout);
    std::cout << "\nArtifacts: " << opt.text << ".json, " << opt.text
              << ".md\nReading guide: 100% = the whole planted secret "
                 "recovered (16/16 AES key bytes, 64/64 exponent "
                 "bits); ~50% RSA / ~0% AES = guessing. Cache "
                 "defenses empty the first two columns; only the FU "
                 "column survives them (non-pipelined multiplier).\n";

    const int code = finishExperiment(result, opt);
    return wrote ? code : 1;
}
