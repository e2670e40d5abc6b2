/**
 * @file
 * The attack x defense matrix artifact (a Table-I-style summary for
 * this repository's defense zoo): one cell per (defense, receiver
 * family) pair carrying the channel's AUC, the secret-dependent timing
 * delta, and the defense's workload overhead against the unsafe
 * baseline. Built from the matrix campaign's ExperimentResult, emitted
 * as JSON (schema "unxpec-matrix-v1") for CI to diff and as markdown
 * for humans (MATRIX.md).
 *
 * Row convention consumed by fromResult(): each result row is labeled
 * "<defense>/<receiver>" and carries the metrics "auc", "delta_cycles",
 * "workload_cycles", and "cycles_per_sample". Overhead is computed at
 * report time against the same receiver's "unsafe" row, so trials never
 * need to run their own baselines.
 *
 * Rows may be incomplete: a row may lack a metric (its trials never
 * recorded it), and an absent unsafe row leaves the whole column
 * without an overhead baseline. Missing statistics become NaN in the
 * cell (JSON null, markdown "-") rather than fabricated zeros, and
 * incompleteCells() counts them for the artifact's note.
 *
 * Victim rows (the real-secret campaign, victim_recovery)
 * additionally carry "recovered_bits_per_sec"; the field is optional
 * per cell and omitted from the JSON when absent, so classic matrix
 * artifacts are byte-identical to before it existed.
 */

#ifndef UNXPEC_ANALYSIS_MATRIX_REPORT_HH
#define UNXPEC_ANALYSIS_MATRIX_REPORT_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/result_sink.hh"

namespace unxpec {

/** One (defense, receiver) cell of the matrix. Statistics the row
 *  could not supply (a metric it lacks, a missing unsafe baseline)
 *  are NaN. */
struct MatrixCell
{
    std::string defense;  //!< defense registry key
    std::string receiver; //!< receiver family: "unxpec" or "contention"
    double auc = 0.5;          //!< channel separability (0.5 = closed)
    double deltaCycles = 0.0;  //!< mean(secret=1) - mean(secret=0)
    double overheadPct = 0.0;  //!< workload cycles vs unsafe, percent
    double cyclesPerSample = 0.0;
    /** Victim cells only: end-to-end secret recovery rate. NaN (and
     *  omitted from the JSON) for classic AUC cells. */
    double recoveredBitsPerSec =
        std::numeric_limits<double>::quiet_NaN();
    unsigned trials = 0;

    /** True when a reported statistic is missing (NaN/inf). The
     *  optional recovery rate does not count. */
    bool incomplete() const;
};

/** The full matrix with provenance. */
struct MatrixReport
{
    std::string experiment;
    std::uint64_t masterSeed = 1;
    unsigned reps = 1;
    std::vector<MatrixCell> cells;

    /** Cell by coordinates; nullptr when absent. */
    const MatrixCell *cell(const std::string &defense,
                           const std::string &receiver) const;

    /** Defense names in first-appearance order. */
    std::vector<std::string> defenses() const;
    /** Receiver names in first-appearance order. */
    std::vector<std::string> receivers() const;
    /** Cells with a missing statistic (see MatrixCell::incomplete). */
    unsigned incompleteCells() const;

    /** Distill a matrix campaign's result (see the row convention in
     *  the file comment). Rows without a '/' label are skipped. */
    static MatrixReport fromResult(const ExperimentResult &result);

    /** JSON artifact, schema "unxpec-matrix-v1", one cell per line
     *  (scripts/check_bench.py reads it back). */
    void writeJson(std::ostream &os) const;

    /** Markdown table: defenses as rows, one AUC / delta / overhead
     *  column group per receiver family. */
    void writeMarkdown(std::ostream &os) const;
};

} // namespace unxpec

#endif // UNXPEC_ANALYSIS_MATRIX_REPORT_HH
