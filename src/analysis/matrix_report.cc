#include "analysis/matrix_report.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

namespace unxpec {

namespace {

void
appendUnique(std::vector<std::string> &names, const std::string &name)
{
    if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
}

/** A row statistic that tolerates a censored (metric-less) row. */
double
meanOrNaN(const ResultRow &row, const std::string &name)
{
    return row.metric(name) != nullptr
        ? row.mean(name)
        : std::numeric_limits<double>::quiet_NaN();
}

/** Fixed-precision cell, or "-" when the statistic is missing. */
std::string
numFixedOrDash(double value, int digits, const char *suffix = "")
{
    if (!std::isfinite(value))
        return "-";
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    oss.setf(std::ios::fixed);
    oss.precision(digits);
    oss << value << suffix;
    return oss.str();
}

} // namespace

bool
MatrixCell::incomplete() const
{
    return !std::isfinite(auc) || !std::isfinite(deltaCycles) ||
           !std::isfinite(overheadPct) ||
           !std::isfinite(cyclesPerSample);
}

const MatrixCell *
MatrixReport::cell(const std::string &defense,
                   const std::string &receiver) const
{
    for (const MatrixCell &c : cells) {
        if (c.defense == defense && c.receiver == receiver)
            return &c;
    }
    return nullptr;
}

std::vector<std::string>
MatrixReport::defenses() const
{
    std::vector<std::string> names;
    for (const MatrixCell &c : cells)
        appendUnique(names, c.defense);
    return names;
}

std::vector<std::string>
MatrixReport::receivers() const
{
    std::vector<std::string> names;
    for (const MatrixCell &c : cells)
        appendUnique(names, c.receiver);
    return names;
}

unsigned
MatrixReport::incompleteCells() const
{
    unsigned count = 0;
    for (const MatrixCell &c : cells)
        count += c.incomplete();
    return count;
}

MatrixReport
MatrixReport::fromResult(const ExperimentResult &result)
{
    MatrixReport report;
    report.experiment = result.experiment;
    report.masterSeed = result.masterSeed;
    report.reps = result.reps;

    // Pass 1: the unsafe baselines' workload cycles, per receiver. A
    // censored or absent baseline poisons the column's overhead (NaN),
    // never the other statistics.
    auto unsafeCycles = [&result](const std::string &receiver) {
        for (const ResultRow &row : result.rows) {
            if (row.label == "unsafe/" + receiver &&
                row.metric("workload_cycles") != nullptr) {
                return row.mean("workload_cycles");
            }
        }
        return std::numeric_limits<double>::quiet_NaN();
    };

    for (const ResultRow &row : result.rows) {
        const std::size_t slash = row.label.find('/');
        if (slash == std::string::npos)
            continue;
        MatrixCell cell;
        cell.defense = row.label.substr(0, slash);
        cell.receiver = row.label.substr(slash + 1);
        // A fully-censored row reports every trial but no metrics:
        // keep the cell (the matrix shape is part of the artifact) and
        // let the statistics read as missing instead of fatal'ing.
        cell.auc = meanOrNaN(row, "auc");
        cell.deltaCycles = meanOrNaN(row, "delta_cycles");
        cell.cyclesPerSample = meanOrNaN(row, "cycles_per_sample");
        cell.recoveredBitsPerSec =
            meanOrNaN(row, "recovered_bits_per_sec");
        cell.trials = row.trials;
        const double base = unsafeCycles(cell.receiver);
        const double cycles = meanOrNaN(row, "workload_cycles");
        cell.overheadPct = base > 0.0 && std::isfinite(cycles)
            ? (cycles / base - 1.0) * 100.0
            : std::numeric_limits<double>::quiet_NaN();
        report.cells.push_back(std::move(cell));
    }
    return report;
}

void
MatrixReport::writeJson(std::ostream &os) const
{
    const std::locale prev = os.imbue(std::locale::classic());
    os << "{\n";
    os << "  \"schema\": \"unxpec-matrix-v1\",\n";
    os << "  \"experiment\": " << jsonStr(experiment) << ",\n";
    os << "  \"master_seed\": " << masterSeed << ",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const MatrixCell &c = cells[i];
        os << "    {\"defense\": " << jsonStr(c.defense)
           << ", \"receiver\": " << jsonStr(c.receiver)
           << ", \"auc\": " << jsonNum(c.auc)
           << ", \"delta_cycles\": " << jsonNum(c.deltaCycles)
           << ", \"overhead_pct\": " << jsonNum(c.overheadPct)
           << ", \"cycles_per_sample\": " << jsonNum(c.cyclesPerSample);
        // Optional field: only victim cells carry a recovery rate, and
        // omitting it keeps classic artifacts byte-identical.
        if (std::isfinite(c.recoveredBitsPerSec)) {
            os << ", \"recovered_bits_per_sec\": "
               << jsonNum(c.recoveredBitsPerSec);
        }
        os << ", \"trials\": " << c.trials << "}"
           << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    os.imbue(prev);
}

void
MatrixReport::writeMarkdown(std::ostream &os) const
{
    const std::vector<std::string> recv = receivers();
    os << "# Attack x defense matrix\n\n";
    os << "AUC 0.5 means the channel is closed (receiver guesses "
          "blind); 1.0 means every sample separates the secret. "
          "Overhead is workload cycles against the unsafe baseline.\n\n";
    os << "Experiment `" << experiment << "`, seed " << masterSeed
       << ", " << reps << " rep(s) per cell.\n\n";

    os << "| defense |";
    for (const std::string &r : recv)
        os << " " << r << " AUC | " << r << " delta (cyc) |";
    os << " overhead |\n";
    os << "|---|";
    for (std::size_t i = 0; i < recv.size(); ++i)
        os << "---|---|";
    os << "---|\n";

    for (const std::string &d : defenses()) {
        os << "| " << d << " |";
        double overhead = std::numeric_limits<double>::quiet_NaN();
        for (const std::string &r : recv) {
            const MatrixCell *c = cell(d, r);
            if (c == nullptr) {
                os << " - | - |";
                continue;
            }
            os << " " << numFixedOrDash(c->auc, 3) << " | "
               << numFixedOrDash(c->deltaCycles, 1) << " |";
            if (std::isfinite(c->overheadPct) &&
                !(overhead > c->overheadPct)) {
                overhead = c->overheadPct;
            }
        }
        os << " " << numFixedOrDash(overhead, 1, "%") << " |\n";
    }

    // Victim campaigns: the end-to-end recovery rate per cell.
    bool anyRate = false;
    for (const MatrixCell &c : cells)
        anyRate = anyRate || std::isfinite(c.recoveredBitsPerSec);
    if (anyRate) {
        os << "\nSecret recovery rate (bits of the planted key per "
              "simulated second):\n\n";
        for (const MatrixCell &c : cells) {
            if (std::isfinite(c.recoveredBitsPerSec)) {
                os << "- `" << c.defense << "/" << c.receiver << "`: "
                   << numFixedOrDash(c.recoveredBitsPerSec, 1) << " bits/s\n";
            }
        }
    }

    const unsigned incomplete = incompleteCells();
    if (incomplete > 0) {
        os << "\nNote: " << incomplete << " cell(s) incomplete — "
              "censored trials or a missing unsafe baseline; missing "
              "statistics are shown as '-'.\n";
    }
    os << "\nReading guide: the cache-state receiver (unxpec) breaks "
          "Undo schemes. The contention cells run with a non-pipelined "
          "multiplier, a hazard no cache defense touches, so the "
          "contention receiver breaks every defense that only hides "
          "*cache* state and no row closes both receivers. `noisy_host` "
          "is a machine profile, not a defense "
          "(`SystemConfig::makeNoisyHost`: 170-cycle memory, 26-cycle "
          "L2): its overhead is the slower memory, not the cost of a "
          "defense.\n";
}

} // namespace unxpec
