/**
 * @file
 * Machine-readable experiment results. Every harness-driven bench
 * aggregates its trials into an ExperimentResult — a list of rows, one
 * per experiment point, each carrying ordered parameters and metric
 * sample vectors with summary statistics — and emits it as JSON
 * (schema "unxpec-experiment-v2") and/or CSV alongside the existing
 * TextTable output, so every figure produces an artifact that later
 * runs and CI can diff and track.
 *
 * Schema v2 extends v1 with trial accounting: a top-level "incomplete" flag, per-row "trials" /
 * "censored_trials" / "retried_trials" / "missing_trials" counts, and
 * a per-metric "nonfinite" count of NaN/Inf samples the summary
 * statistics skipped. v1 consumers that index rows[].metrics by name
 * keep working unchanged — v2 only adds fields. The runner runs every
 * trial once and a trial that hits the cycle ceiling aborts the run,
 * so "incomplete" is always false and the censored, retried and
 * missing counts always 0; the keys stay for the schema's existing
 * readers.
 */

#ifndef UNXPEC_ANALYSIS_RESULT_SINK_HH
#define UNXPEC_ANALYSIS_RESULT_SINK_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/summary.hh"

namespace unxpec {

/** One metric of one experiment point: raw per-trial values + stats. */
struct MetricSeries
{
    std::vector<double> values;
    Summary summary;

    static MetricSeries of(std::vector<double> values);
};

/** One experiment point (one row of the figure being reproduced). */
struct ResultRow
{
    std::string label;
    /** Ordered sweep coordinates, e.g. {"loads", 3}, {"evset", 1}. */
    std::vector<std::pair<std::string, double>> params;
    /** Ordered named metrics. */
    std::vector<std::pair<std::string, MetricSeries>> metrics;

    // Trial accounting (schema v2): how many of the row's planned
    // trials actually contributed to the metrics above.
    unsigned trials = 0;         //!< completed and contributing
    unsigned censoredTrials = 0; //!< always 0; kept for the v2 schema
    unsigned retriedTrials = 0;  //!< always 0; kept for the v2 schema
    unsigned missingTrials = 0;  //!< always 0; kept for the v2 schema

    /** Metric by name; nullptr when absent. */
    const MetricSeries *metric(const std::string &name) const;
    /** Mean of a metric; fatal() when the metric is absent. */
    double mean(const std::string &name) const;
    /** All raw values of a metric; fatal() when absent. */
    const std::vector<double> &values(const std::string &name) const;
    /** Parameter value; `fallback` when absent. */
    double param(const std::string &name, double fallback = 0.0) const;
};

/** A full experiment: provenance header plus one row per point. */
struct ExperimentResult
{
    std::string experiment;     //!< e.g. "fig03_timing_difference"
    std::string description;
    std::uint64_t masterSeed = 1;
    unsigned reps = 1;
    unsigned threads = 1;
    std::string mode;           //!< defense registry key (or "mixed")
    /** Always false: every trial of a run finishes. Kept for the v2
     *  schema's "incomplete" key. */
    bool incomplete = false;
    std::vector<ResultRow> rows;

    /** Row by index; fatal() when out of range. */
    const ResultRow &row(std::size_t index) const;
    /** First row whose params match all of `coords`; fatal() if none. */
    const ResultRow &
    rowAt(const std::vector<std::pair<std::string, double>> &coords) const;
};

/**
 * Full round-trip-precision decimal rendering (max_digits10), pinned
 * to the classic locale so every artifact survives LC_NUMERIC=de_DE
 * (where the global locale would print a decimal *comma* and group
 * digits). Non-finite values print as the stream renders them.
 */
std::string numToString(double value);

/** JSON number: numToString, or null when non-finite. */
std::string jsonNum(double value);

/** JSON string literal: quoted, with quotes, backslashes and control
 *  characters escaped. */
std::string jsonStr(const std::string &s);

/**
 * Emit the result as JSON. `includeValues` controls whether raw
 * per-trial vectors accompany the summaries (they dominate file size
 * for sample-heavy experiments). Non-finite numbers become null.
 * Number formatting is locale-independent (classic "C" locale)
 * regardless of the global locale.
 */
void writeJson(std::ostream &os, const ExperimentResult &result,
               bool includeValues = true);

/**
 * Emit one line per row: params and trial counts, then
 * mean/stddev/count per metric. Non-finite numbers become empty cells;
 * formatting is locale-independent like writeJson.
 */
void writeCsv(std::ostream &os, const ExperimentResult &result);

/**
 * Write the artifacts requested by the caller-supplied paths (empty
 * path = skip) and report each written file on `status`. Returns false
 * if any file could not be opened.
 */
bool emitArtifacts(const ExperimentResult &result,
                   const std::string &json_path,
                   const std::string &csv_path, std::ostream &status);

} // namespace unxpec

#endif // UNXPEC_ANALYSIS_RESULT_SINK_HH
