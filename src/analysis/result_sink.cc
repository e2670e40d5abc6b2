#include "analysis/result_sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>

#include "sim/log.hh"

namespace unxpec {

std::string
numToString(double value)
{
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    oss.precision(std::numeric_limits<double>::max_digits10);
    oss << value;
    return oss.str();
}

std::string
jsonNum(double value)
{
    if (!std::isfinite(value))
        return "null";
    return numToString(value);
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

namespace {

/** CSV number: full round-trip precision, empty cell when non-finite. */
std::string
csvNum(double value)
{
    if (!std::isfinite(value))
        return "";
    return numToString(value);
}

/** CSV cell: quote when it contains separators, quotes, or newlines. */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += "\"";
    return out;
}

} // namespace

MetricSeries
MetricSeries::of(std::vector<double> values)
{
    MetricSeries series;
    series.summary = Summary::of(values);
    series.values = std::move(values);
    return series;
}

const MetricSeries *
ResultRow::metric(const std::string &name) const
{
    for (const auto &[key, series] : metrics) {
        if (key == name)
            return &series;
    }
    return nullptr;
}

double
ResultRow::mean(const std::string &name) const
{
    const MetricSeries *series = metric(name);
    if (series == nullptr)
        fatal("ResultRow '", label, "': no metric '", name, "'");
    return series->summary.mean;
}

const std::vector<double> &
ResultRow::values(const std::string &name) const
{
    const MetricSeries *series = metric(name);
    if (series == nullptr)
        fatal("ResultRow '", label, "': no metric '", name, "'");
    return series->values;
}

double
ResultRow::param(const std::string &name, double fallback) const
{
    for (const auto &[key, value] : params) {
        if (key == name)
            return value;
    }
    return fallback;
}

const ResultRow &
ExperimentResult::row(std::size_t index) const
{
    if (index >= rows.size()) {
        fatal("ExperimentResult '", experiment, "': row ", index,
              " out of range (", rows.size(), " rows)");
    }
    return rows[index];
}

const ResultRow &
ExperimentResult::rowAt(
    const std::vector<std::pair<std::string, double>> &coords) const
{
    for (const ResultRow &candidate : rows) {
        bool match = true;
        for (const auto &[key, value] : coords) {
            if (candidate.param(key,
                                std::numeric_limits<double>::quiet_NaN()) !=
                value) {
                match = false;
                break;
            }
        }
        if (match)
            return candidate;
    }
    std::ostringstream oss;
    for (const auto &[key, value] : coords)
        oss << " " << key << "=" << value;
    fatal("ExperimentResult '", experiment, "': no row matching", oss.str());
}

void
writeJson(std::ostream &os, const ExperimentResult &result,
          bool includeValues)
{
    const std::locale prev = os.imbue(std::locale::classic());
    os << "{\n";
    os << "  \"schema\": \"unxpec-experiment-v2\",\n";
    os << "  \"experiment\": " << jsonStr(result.experiment) << ",\n";
    os << "  \"description\": " << jsonStr(result.description) << ",\n";
    os << "  \"master_seed\": " << result.masterSeed << ",\n";
    os << "  \"reps\": " << result.reps << ",\n";
    os << "  \"threads\": " << result.threads << ",\n";
    os << "  \"mode\": " << jsonStr(result.mode) << ",\n";
    os << "  \"incomplete\": " << (result.incomplete ? "true" : "false")
       << ",\n";
    os << "  \"rows\": [";
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
        const ResultRow &row = result.rows[r];
        os << (r == 0 ? "\n" : ",\n");
        os << "    {\n      \"label\": " << jsonStr(row.label) << ",\n";
        os << "      \"params\": {";
        for (std::size_t p = 0; p < row.params.size(); ++p) {
            os << (p == 0 ? "" : ", ") << jsonStr(row.params[p].first)
               << ": " << jsonNum(row.params[p].second);
        }
        os << "},\n";
        os << "      \"trials\": " << row.trials
           << ", \"censored_trials\": " << row.censoredTrials
           << ", \"retried_trials\": " << row.retriedTrials
           << ", \"missing_trials\": " << row.missingTrials << ",\n";
        os << "      \"metrics\": {";
        for (std::size_t m = 0; m < row.metrics.size(); ++m) {
            const auto &[name, series] = row.metrics[m];
            const Summary &s = series.summary;
            os << (m == 0 ? "\n" : ",\n");
            os << "        " << jsonStr(name) << ": {"
               << "\"count\": " << s.count
               << ", \"nonfinite\": " << s.nonfinite
               << ", \"mean\": " << jsonNum(s.mean)
               << ", \"stddev\": " << jsonNum(s.stddev)
               << ", \"min\": " << jsonNum(s.min)
               << ", \"max\": " << jsonNum(s.max)
               << ", \"median\": " << jsonNum(s.median);
            if (includeValues) {
                os << ", \"values\": [";
                for (std::size_t v = 0; v < series.values.size(); ++v) {
                    os << (v == 0 ? "" : ", ")
                       << jsonNum(series.values[v]);
                }
                os << "]";
            }
            os << "}";
        }
        os << (row.metrics.empty() ? "}" : "\n      }") << "\n    }";
    }
    os << (result.rows.empty() ? "]" : "\n  ]") << "\n}\n";
    os.imbue(prev);
}

void
writeCsv(std::ostream &os, const ExperimentResult &result)
{
    if (result.rows.empty())
        return;

    const std::locale prev = os.imbue(std::locale::classic());

    // Header from the first row's shape; later rows are looked up by
    // name so sparse metrics simply leave empty cells.
    const ResultRow &first = result.rows.front();
    os << "label";
    for (const auto &[key, value] : first.params)
        os << "," << csvCell(key);
    os << ",trials,censored_trials,retried_trials,missing_trials";
    for (const auto &[name, series] : first.metrics) {
        os << "," << csvCell(name + ":mean") << ","
           << csvCell(name + ":stddev") << "," << csvCell(name + ":count");
    }
    os << "\n";

    for (const ResultRow &row : result.rows) {
        os << csvCell(row.label);
        for (const auto &[key, unused] : first.params) {
            os << ","
               << csvNum(row.param(
                      key, std::numeric_limits<double>::quiet_NaN()));
        }
        os << "," << row.trials << "," << row.censoredTrials << ","
           << row.retriedTrials << "," << row.missingTrials;
        for (const auto &[name, unused] : first.metrics) {
            const MetricSeries *series = row.metric(name);
            if (series == nullptr) {
                os << ",,,";
                continue;
            }
            os << "," << csvNum(series->summary.mean) << ","
               << csvNum(series->summary.stddev) << ","
               << series->summary.count;
        }
        os << "\n";
    }
    os.imbue(prev);
}

bool
emitArtifacts(const ExperimentResult &result, const std::string &json_path,
              const std::string &csv_path, std::ostream &status)
{
    bool ok = true;
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            warn("cannot open ", json_path, " for writing");
            ok = false;
        } else {
            writeJson(out, result);
            status << "wrote " << json_path << "\n";
        }
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
            warn("cannot open ", csv_path, " for writing");
            ok = false;
        } else {
            writeCsv(out, result);
            status << "wrote " << csv_path << "\n";
        }
    }
    return ok;
}

} // namespace unxpec
