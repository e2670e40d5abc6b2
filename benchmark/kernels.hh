/**
 * @file
 * The kernels pass: isolated per-call host cost of the public calls the
 * per-layer metrics name, each the median of five timed loops.
 */

#ifndef UNXPEC_BENCHMARK_KERNELS_HH
#define UNXPEC_BENCHMARK_KERNELS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace unxpec::bench {

/**
 * Time every kernel and return (metric name, value) pairs in the units
 * the metric names carry (_ns, _us, _ms). `seed` derives the inputs
 * (addresses, machine seeds, sample values) at run time, so no loop
 * works on compile-time constants.
 */
std::vector<std::pair<std::string, double>> runKernels(std::uint64_t seed);

} // namespace unxpec::bench

#endif // UNXPEC_BENCHMARK_KERNELS_HH
