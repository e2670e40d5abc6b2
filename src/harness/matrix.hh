/**
 * @file
 * The attack x defense matrix campaign: every registered defense (or a
 * curated default subset) crossed with the two receiver families —
 * "unxpec" (cache-state rollback timing) and "contention" (SpectreRewind
 * FU contention on a non-pipelined multiplier). One spec per cell; the
 * shared trial function measures the channel's AUC, the raw timing
 * delta, the attack's sample cost, and the defense's workload cycles,
 * and MatrixReport::fromResult distills the rows into the Table-I-style
 * matrix artifact (analysis/matrix_report.hh).
 *
 * The campaign rides the ordinary harness machinery — --threads,
 * --json, --trace all work — because the matrix is just an
 * ExperimentSpec sweep with a label convention.
 */

#ifndef UNXPEC_HARNESS_MATRIX_HH
#define UNXPEC_HARNESS_MATRIX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/spec.hh"
#include "harness/trial_runner.hh"

namespace unxpec {

/** Receiver families the matrix crosses every defense with. */
const std::vector<std::string> &matrixReceivers();

/**
 * Defenses swept by default: the zoo's distinct mechanisms (unsafe,
 * both CleanupSpec flavors, InvisiSpec, delay-on-miss, SafeSpec,
 * SpecBox, CacheSquash) without the timing-countermeasure variants.
 */
const std::vector<std::string> &matrixDefaultDefenses();

/**
 * One spec per (defense, receiver) cell, labeled
 * "<defense>/<receiver>". `base` supplies noise/cores defaults;
 * `all_defenses` sweeps every registered defense instead of the
 * curated subset (the --matrix flag). Contention cells tweak the core
 * to a non-pipelined multiplier — the hardware SpectreRewind needs.
 */
std::vector<ExperimentSpec> matrixSpecs(const ExperimentSpec &base,
                                        bool all_defenses);

/**
 * The shared per-cell trial function: collects `samples_per_class`
 * receiver measurements per secret value and reports
 *   auc               RocCurve AUC over the two sample sets
 *   delta_cycles      mean(secret=1) - mean(secret=0)
 *   cycles_per_sample simulated cost of one receiver measurement
 *   workload_cycles   post-warmup cycles of a synthetic SPEC workload
 *                     on the cell's configuration (overhead is derived
 *                     against the unsafe row at report time)
 *
 * The returned function owns a memo of whole trials, keyed on
 * Session::configFor's config without its seed plus the spec's label,
 * attack, noise and attackCfg. A trial uses it only when its output
 * cannot depend on the seed: the config is seedFree(), the noise
 * profile has no interrupts and no tracer records it. The key's first
 * claimant simulates and panics if any core drew from its Rng; later
 * claimants (the spec's other reps) copy its output, waiting only while
 * it is in flight. Any other trial simulates on every call.
 */
TrialFn matrixTrialFn(unsigned samples_per_class);

/** Matrix trials this process has simulated: memo misses plus every
 *  trial outside the memo. */
std::uint64_t matrixTrialSimulations();

/**
 * Receiver families of the real-secret victim campaign
 * (victim_recovery): "victim-aes" (AES-128 T-table first
 * round through the Flush+Reload probe), "victim-rsa" (square-and-
 * multiply exponent bits through the multiplier-line reload), and
 * "victim-rsa-fu" (the same victim read through the SpectreRewind
 * FU-contention receiver on a non-pipelined multiplier).
 */
const std::vector<std::string> &victimReceivers();

/** Defenses the victim campaign sweeps by default: the unsafe
 *  baseline, both CleanupSpec flavors, and the two cache-hiding
 *  defenses the contention receiver re-opens. */
const std::vector<std::string> &victimDefaultDefenses();

/**
 * One spec per (defense, victim receiver) cell, labeled
 * "<defense>/<receiver>". `all_defenses` (the --matrix flag) sweeps
 * every registered defense. The "victim-rsa-fu" cells tweak the core
 * to a non-pipelined multiplier, exactly like the classic matrix's
 * contention cells.
 */
std::vector<ExperimentSpec> victimSpecs(const ExperimentSpec &base,
                                        bool all_defenses);

/**
 * The per-cell victim trial: plants a seed-derived secret (16-byte
 * AES key or 64-bit exponent), runs the full end-to-end recovery, and
 * reports
 *   auc                    recovered fraction (AES: correct key bytes
 *                          / 16; RSA: correct exponent bits / 64)
 *   recovered_bits         correctly recovered secret bits
 *   recovered_bits_per_sec recovery rate over the attack's simulated
 *                          cycles at the configured clock
 *   delta_cycles           mean ranking margin (AES) / bit-split gap
 *   cycles_per_sample      simulated cost of one victim run
 *   workload_cycles        synthetic-workload cycles (overhead column)
 * `plaintexts` bounds the AES evidence schedule (1..8).
 */
TrialFn victimTrialFn(unsigned plaintexts);

} // namespace unxpec

#endif // UNXPEC_HARNESS_MATRIX_HH
