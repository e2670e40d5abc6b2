/**
 * @file
 * The attack x defense matrix campaign: every defense in the zoo (or
 * the curated default subset) crossed with both receiver families —
 * the unXpec rollback-timing channel and the SpectreRewind-style FU
 * contention channel. One Table-I-style artifact comes out: the
 * channel AUC, timing delta, and workload overhead per cell, written
 * as <out>.json (schema unxpec-matrix-v1, CI diffs it) and <out>.md
 * (MATRIX.md is a checked-in copy).
 *
 * The point of the matrix: "invisible to the cache" is not "invisible".
 * SafeSpec/SpecBox/CacheSquash all close the unXpec cache channel
 * (AUC -> 0.5), but the contention receiver — which never touches
 * memory speculatively — still reads the secret through the
 * multiplier's busy window on every one of them.
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

} // namespace

int
main(int argc, char **argv)
{
    HarnessCli cli("matrix_campaign",
                   "Attack x defense matrix: AUC, timing delta, and "
                   "workload overhead per (defense, receiver) cell");
    cli.defaultMode("unsafe")
        .scaleOption("receiver samples per secret class per trial", 24)
        .matrixOption()
        .textArg("output base path (writes BASE.json and BASE.md)",
                 "matrix");
    const HarnessOptions opt = cli.parse(argc, argv);

    const std::vector<ExperimentSpec> specs =
        matrixSpecs(cli.baseSpec(opt), opt.matrix);
    const ExperimentResult result = runExperiment(
        cli, opt, specs,
        matrixTrialFn(static_cast<unsigned>(opt.scale)));

    const MatrixReport report = MatrixReport::fromResult(result);
    bool wrote = writeArtifact(report, opt.text + ".json", true);
    wrote = writeArtifact(report, opt.text + ".md", false) && wrote;

    std::cout << "=== Attack x defense matrix ===\n\n";
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
    table.print(std::cout);
    std::cout << "\nArtifacts: " << opt.text << ".json, " << opt.text
              << ".md\nReading guide: AUC 1.0 = channel wide open, 0.5 = "
                 "closed. Cache defenses close the unxpec column; only "
                 "a contention-aware defense would close the contention "
                 "column.\n";

    const int code = finishExperiment(result, opt);
    return wrote ? code : 1;
}
