/**
 * @file
 * Descriptive statistics over sample vectors.
 */

#ifndef UNXPEC_ANALYSIS_SUMMARY_HH
#define UNXPEC_ANALYSIS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace unxpec {

/**
 * Summary statistics of a sample vector. Non-finite samples (NaN/Inf
 * — e.g. a metric computed from a degenerate trial) are
 * skipped rather than poisoning every moment: the statistics cover the
 * finite subset, `count` is the number of finite samples, and
 * `nonfinite` reports how many were skipped. A vector with samples but
 * no finite ones yields NaN statistics (count 0), which the JSON/CSV
 * emitters render as null / an empty cell.
 */
struct Summary
{
    std::size_t count = 0;      //!< finite samples summarized
    std::size_t nonfinite = 0;  //!< NaN/Inf samples skipped
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;

    /** Compute all fields for `samples`. */
    static Summary of(const std::vector<double> &samples);

    /**
     * Linear-interpolated percentile (q in [0, 1]) of the finite
     * subset of `samples`; NaN when no finite sample exists but the
     * input is non-empty, 0.0 for an empty input.
     */
    static double percentile(std::vector<double> samples, double q);
};

} // namespace unxpec

#endif // UNXPEC_ANALYSIS_SUMMARY_HH
