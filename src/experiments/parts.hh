/**
 * @file
 * The two halves of the experiment table and the helpers they share.
 * Internal to src/experiments/; everything else uses experiments().
 */

#ifndef UNXPEC_EXPERIMENTS_PARTS_HH
#define UNXPEC_EXPERIMENTS_PARTS_HH

#include <cstdint>
#include <vector>

#include "experiments/experiment.hh"

namespace unxpec {

/** The paper's figures and its §VI-B rate (figures.cc). */
std::vector<Experiment> figureExperiments();

/** The studies beyond the figures and the matrix campaigns
 *  (studies.cc). */
std::vector<Experiment> studyExperiments();

/** `bits` fair random bits drawn from Rng(seed). */
std::vector<int> randomSecret(std::uint64_t seed, unsigned bits);

/** The unXpec attack variant with or without eviction sets. */
inline const char *
unxpecVariant(bool evsets)
{
    return evsets ? "unxpec-evset" : "unxpec";
}

} // namespace unxpec

#endif // UNXPEC_EXPERIMENTS_PARTS_HH
