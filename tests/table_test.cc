/**
 * @file
 * Unit tests for the text presentation helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "analysis/matrix_report.hh"
#include "analysis/table.hh"

namespace unxpec {
namespace {

TEST(TextTableTest, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22222"});
    std::ostringstream oss;
    table.print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
    // Header rule present.
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TextTableTest, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(10.0, 0), "10");
}

TEST(PrintDensityTest, RendersTwoCurves)
{
    DensityCurve a, b;
    for (int i = 0; i < 40; ++i) {
        a.x.push_back(i);
        b.x.push_back(i);
        a.density.push_back(i < 20 ? i : 40 - i);
        b.density.push_back(i > 10 ? 40 - i : i);
    }
    std::ostringstream oss;
    printDensity(oss, a, "zero", b, "one", 6);
    const std::string text = oss.str();
    EXPECT_NE(text.find("o=zero"), std::string::npos);
    EXPECT_NE(text.find("*=one"), std::string::npos);
    EXPECT_NE(text.find('|'), std::string::npos);
}

TEST(PrintDensityTest, MismatchedCurvesHandled)
{
    DensityCurve a, b;
    a.x = {1, 2};
    a.density = {0.1, 0.2};
    std::ostringstream oss;
    printDensity(oss, a, "a", b, "b");
    EXPECT_NE(oss.str().find("unavailable"), std::string::npos);
}

// --- matrix report ------------------------------------------------------

MatrixCell
sampleCell(const std::string &defense, const std::string &receiver,
           double auc, double delta, double overhead, double cps,
           unsigned trials)
{
    MatrixCell cell;
    cell.defense = defense;
    cell.receiver = receiver;
    cell.auc = auc;
    cell.deltaCycles = delta;
    cell.overheadPct = overhead;
    cell.cyclesPerSample = cps;
    cell.trials = trials;
    return cell;
}

MatrixReport
sampleMatrix()
{
    MatrixReport report;
    report.experiment = "matrix_campaign";
    report.masterSeed = 42;
    report.reps = 3;
    report.cells.push_back(
        sampleCell("unsafe", "unxpec", 1.0, -112.0, 0.0, 3871.25, 3));
    report.cells.push_back(
        sampleCell("unsafe", "contention", 0.9875, 18.5, 0.0, 1544.0, 3));
    report.cells.push_back(
        sampleCell("safespec", "unxpec", 0.5, 0.0, 1.03125, 3870.5, 3));
    report.cells.push_back(
        sampleCell("safespec", "contention", 1.0, 18.5, 1.03125, 1544.0,
                   3));
    return report;
}

/** A row with the standard matrix metrics, `reps` trials each. */
ResultRow
matrixRow(const std::string &label, double auc, double workload)
{
    ResultRow row;
    row.label = label;
    row.metrics.emplace_back("auc", MetricSeries::of({auc}));
    row.metrics.emplace_back("delta_cycles", MetricSeries::of({10.0}));
    row.metrics.emplace_back("cycles_per_sample",
                             MetricSeries::of({100.0}));
    row.metrics.emplace_back("workload_cycles",
                             MetricSeries::of({workload}));
    row.trials = 1;
    return row;
}

/** The JSON line writeJson emits for cell `index` (no newline). */
std::string
cellLine(const std::string &json, std::size_t index)
{
    std::size_t at = 0;
    for (std::size_t i = 0; i <= index; ++i) {
        at = json.find("{\"defense\"", i == 0 ? 0 : at + 1);
        if (at == std::string::npos)
            return "";
    }
    return json.substr(at, json.find('\n', at) - at);
}

TEST(MatrixReportTest, JsonWritesEveryCellAtRoundTripPrecision)
{
    // scripts/check_bench.py parses this text, so pin it exactly: one
    // cell per line, max_digits10 numbers (0.1 and 0.9875 are not
    // representable, so their shortest round-trip tokens are 17 digits).
    MatrixReport report = sampleMatrix();
    report.cells[2].overheadPct = 0.1;
    std::ostringstream oss;
    report.writeJson(oss);
    EXPECT_EQ(oss.str(),
              "{\n"
              "  \"schema\": \"unxpec-matrix-v1\",\n"
              "  \"experiment\": \"matrix_campaign\",\n"
              "  \"master_seed\": 42,\n"
              "  \"reps\": 3,\n"
              "  \"cells\": [\n"
              "    {\"defense\": \"unsafe\", \"receiver\": \"unxpec\", "
              "\"auc\": 1, \"delta_cycles\": -112, \"overhead_pct\": 0, "
              "\"cycles_per_sample\": 3871.25, \"trials\": 3},\n"
              "    {\"defense\": \"unsafe\", \"receiver\": \"contention\", "
              "\"auc\": 0.98750000000000004, \"delta_cycles\": 18.5, "
              "\"overhead_pct\": 0, \"cycles_per_sample\": 1544, "
              "\"trials\": 3},\n"
              "    {\"defense\": \"safespec\", \"receiver\": \"unxpec\", "
              "\"auc\": 0.5, \"delta_cycles\": 0, "
              "\"overhead_pct\": 0.10000000000000001, "
              "\"cycles_per_sample\": 3870.5, \"trials\": 3},\n"
              "    {\"defense\": \"safespec\", \"receiver\": "
              "\"contention\", \"auc\": 1, \"delta_cycles\": 18.5, "
              "\"overhead_pct\": 1.03125, \"cycles_per_sample\": 1544, "
              "\"trials\": 3}\n"
              "  ]\n"
              "}\n");
    EXPECT_EQ(std::stod("0.10000000000000001"), 0.1);
    EXPECT_EQ(std::stod("0.98750000000000004"), 0.9875);
}

TEST(MatrixReportTest, JsonCarriesSchemaTag)
{
    std::ostringstream oss;
    sampleMatrix().writeJson(oss);
    EXPECT_NE(oss.str().find("\"unxpec-matrix-v1\""), std::string::npos);
}

TEST(MatrixReportTest, CellLookupAndAxisOrder)
{
    const MatrixReport report = sampleMatrix();
    const MatrixCell *cell = report.cell("safespec", "contention");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->auc, 1.0);
    EXPECT_EQ(report.cell("safespec", "nope"), nullptr);
    EXPECT_EQ(report.defenses(),
              (std::vector<std::string>{"unsafe", "safespec"}));
    EXPECT_EQ(report.receivers(),
              (std::vector<std::string>{"unxpec", "contention"}));
}

TEST(MatrixReportTest, MarkdownListsEveryDefenseRow)
{
    std::ostringstream oss;
    sampleMatrix().writeMarkdown(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("| unsafe "), std::string::npos);
    EXPECT_NE(text.find("| safespec "), std::string::npos);
    EXPECT_NE(text.find("unxpec"), std::string::npos);
    EXPECT_NE(text.find("contention"), std::string::npos);
    // A complete matrix carries no incompleteness note.
    EXPECT_EQ(text.find("incomplete"), std::string::npos);
    EXPECT_EQ(sampleMatrix().incompleteCells(), 0u);
}

TEST(MatrixReportTest, CensoredRowSurvivesAsNullNotFatal)
{
    // A fully-censored cell reports trial accounting but no metrics.
    // fromResult must keep the cell with missing statistics instead of
    // fatal'ing on the absent metric (the old row.mean() crash).
    ExperimentResult result;
    result.experiment = "matrix_campaign";
    result.rows.push_back(matrixRow("unsafe/unxpec", 1.0, 1000.0));
    ResultRow censored;
    censored.label = "safespec/unxpec";
    censored.censoredTrials = 3;
    result.rows.push_back(censored);

    const MatrixReport report = MatrixReport::fromResult(result);
    ASSERT_EQ(report.cells.size(), 2u);
    const MatrixCell *cell = report.cell("safespec", "unxpec");
    ASSERT_NE(cell, nullptr);
    EXPECT_TRUE(std::isnan(cell->auc));
    EXPECT_TRUE(std::isnan(cell->deltaCycles));
    EXPECT_TRUE(std::isnan(cell->overheadPct));
    EXPECT_TRUE(cell->incomplete());
    EXPECT_EQ(report.incompleteCells(), 1u);

    // The complete baseline cell is untouched.
    const MatrixCell *ok = report.cell("unsafe", "unxpec");
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->auc, 1.0);
    EXPECT_EQ(ok->overheadPct, 0.0);
    EXPECT_FALSE(ok->incomplete());

    // JSON renders the missing statistics as null, and the markdown
    // dashes them out with a counted note — no fabricated zeros.
    std::ostringstream json;
    report.writeJson(json);
    EXPECT_NE(json.str().find("\"auc\": null"), std::string::npos);
    std::ostringstream md;
    report.writeMarkdown(md);
    EXPECT_NE(md.str().find("1 cell(s) incomplete"), std::string::npos);
    EXPECT_NE(md.str().find(" - |"), std::string::npos);
}

TEST(MatrixReportTest, MissingUnsafeBaselineNullsOverheadOnly)
{
    // No unsafe row at all: every overhead is uncomputable (null), but
    // the channel statistics stay real numbers.
    ExperimentResult result;
    result.rows.push_back(matrixRow("safespec/unxpec", 0.5, 1030.0));
    result.rows.push_back(matrixRow("specbox/unxpec", 0.5, 1020.0));
    const MatrixReport report = MatrixReport::fromResult(result);
    for (const MatrixCell &cell : report.cells) {
        EXPECT_TRUE(std::isnan(cell.overheadPct)) << cell.defense;
        EXPECT_EQ(cell.auc, 0.5);
        EXPECT_TRUE(cell.incomplete());
    }
}

TEST(MatrixReportTest, NullStatisticsWriteAsJsonNull)
{
    MatrixReport report = sampleMatrix();
    report.cells[2].auc = std::numeric_limits<double>::quiet_NaN();
    report.cells[2].overheadPct =
        std::numeric_limits<double>::quiet_NaN();
    std::ostringstream oss;
    report.writeJson(oss);
    const std::string json = oss.str();
    EXPECT_EQ(cellLine(json, 2),
              "{\"defense\": \"safespec\", \"receiver\": \"unxpec\", "
              "\"auc\": null, \"delta_cycles\": 0, \"overhead_pct\": null, "
              "\"cycles_per_sample\": 3870.5, \"trials\": 3},");
    // The neighbouring cell keeps its real numbers.
    EXPECT_NE(cellLine(json, 3).find("\"auc\": 1,"), std::string::npos);
    EXPECT_EQ(report.incompleteCells(), 1u);
}

TEST(MatrixReportTest, RecoveredRateIsOptionalPerCell)
{
    // The victim campaign's field: emitted only where finite, so
    // classic matrix artifacts stay byte-identical.
    MatrixReport report = sampleMatrix();
    report.cells[0].recoveredBitsPerSec = 313419.0;
    std::ostringstream oss;
    report.writeJson(oss);
    const std::string json = oss.str();
    EXPECT_EQ(static_cast<int>(json.find("recovered_bits_per_sec") !=
                               std::string::npos),
              1);
    // Exactly one cell carries the field.
    std::size_t count = 0;
    for (std::size_t at = json.find("recovered_bits_per_sec");
         at != std::string::npos;
         at = json.find("recovered_bits_per_sec", at + 1))
        ++count;
    EXPECT_EQ(count, 1u);

    // ...and it is cell 0, between cycles_per_sample and trials.
    EXPECT_NE(cellLine(json, 0).find("\"cycles_per_sample\": 3871.25, "
                                     "\"recovered_bits_per_sec\": 313419, "
                                     "\"trials\": 3}"),
              std::string::npos);
    // The optional field never counts toward incompleteness.
    EXPECT_EQ(report.incompleteCells(), 0u);

    // And the markdown gains the rate section only when present.
    std::ostringstream md;
    report.writeMarkdown(md);
    EXPECT_NE(md.str().find("recovery rate"), std::string::npos);
    std::ostringstream mdPlain;
    sampleMatrix().writeMarkdown(mdPlain);
    EXPECT_EQ(mdPlain.str().find("recovery rate"), std::string::npos);
}

TEST(MatrixReportTest, FromResultReadsRecoveredRate)
{
    ExperimentResult result;
    ResultRow row = matrixRow("unsafe/victim-aes", 1.0, 1000.0);
    row.metrics.emplace_back("recovered_bits_per_sec",
                             MetricSeries::of({128000.0}));
    result.rows.push_back(row);
    const MatrixReport report = MatrixReport::fromResult(result);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].recoveredBitsPerSec, 128000.0);
    EXPECT_FALSE(report.cells[0].incomplete());
}

} // namespace
} // namespace unxpec
