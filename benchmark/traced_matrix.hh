/**
 * @file
 * Span-instrumented copies of the library's matrix and victim trial
 * functions (src/harness/matrix.cc), for the traced pass of the `zoo`
 * and `victims` workloads. The untraced pass calls the library
 * functions themselves, as users do.
 */

#ifndef UNXPEC_BENCHMARK_TRACED_MATRIX_HH
#define UNXPEC_BENCHMARK_TRACED_MATRIX_HH

#include "harness/trial_runner.hh"

namespace unxpec::bench {

/** matrixTrialFn(samples_per_class), with spans and counts. */
TrialFn tracedMatrixTrialFn(unsigned samples_per_class);

/** victimTrialFn(plaintexts), with spans and counts. */
TrialFn tracedVictimTrialFn(unsigned plaintexts);

} // namespace unxpec::bench

#endif // UNXPEC_BENCHMARK_TRACED_MATRIX_HH
