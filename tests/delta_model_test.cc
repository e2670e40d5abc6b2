/**
 * @file
 * The delta_model gate: both headline rollback differences are the
 * CleanupTiming formula, not an emergent pipeline effect. Under the
 * `quiet` profile with the default timing, every Fig. 3 row (plain
 * unXpec, n = 1..8 squashed loads) and every Fig. 6 row (eviction
 * sets, n = 1..8) measures Δ = llround(rollbackDuration(n, n, r))
 * cycles, where r is the round's restores (0 without eviction sets, n
 * with them), and every squash a Fig. 3 round logs stalls for exactly
 * its T4 wait plus the formula of its own counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "attack/unxpec.hh"
#include "cleanup/cleanup_engine.hh"
#include "harness/session.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

/** The spec fig03 (evset = false) or fig06 (evset = true) builds for
 *  `loads` squashed loads, at the benches' defaults. */
ExperimentSpec
rowSpec(bool evset, unsigned loads)
{
    ExperimentSpec spec;
    spec.label = std::string(evset ? "evset" : "plain") +
                 " loads=" + std::to_string(loads);
    spec.attack = evset ? "unxpec-evset" : "unxpec";
    spec.attackCfg.inBranchLoads = loads;
    return spec;
}

/** rollbackDuration(...) under the CleanupTiming defaults. */
double
duration(unsigned l1_inv, unsigned l2_inv, unsigned restores)
{
    Rng unused(1);
    const CleanupEngine model(CleanupMode::Cleanup_FOR_L1L2, CleanupTiming{},
                              unused);
    return model.rollbackDuration(l1_inv, l2_inv, restores);
}

Cycle
formula(unsigned l1_inv, unsigned l2_inv, unsigned restores)
{
    return static_cast<Cycle>(
        std::llround(duration(l1_inv, l2_inv, restores)));
}

/** What the model says a logged squash stalls: its T4 wait plus the
 *  formula of its own counts (T3 alone when it only dropped in-flight
 *  loads). */
Cycle
modelStall(const SquashLog &log)
{
    double cycles =
        duration(log.l1Invalidations, log.l2Invalidations, log.restores);
    if (cycles == 0.0 && log.inflightDropped > 0)
        cycles = CleanupTiming{}.mshrCleanCost;
    return log.drainWait + static_cast<Cycle>(std::llround(cycles));
}

/** All 16 Δ rows, two seeds each: the quiet profile is deterministic
 *  per secret class, so each trial equals its row's mean. */
TEST(DeltaModel, EveryFig3AndFig6RowIsTheFormula)
{
    for (const bool evset : {false, true}) {
        for (unsigned loads = 1; loads <= 8; ++loads) {
            const ExperimentSpec spec = rowSpec(evset, loads);
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                Session session(spec, Rng::deriveSeed(seed, loads));
                UnxpecAttack &attack = session.unxpec();
                attack.setSecret(0);
                const double zero = attack.measureOnce();
                attack.setSecret(1);
                const double one = attack.measureOnce();
                const RoundDetail &detail = attack.lastDetail();
                ASSERT_TRUE(detail.valid) << spec.label;
                const unsigned restores = evset ? loads : 0;
                EXPECT_EQ(detail.restores, restores) << spec.label;

                EXPECT_EQ(one - zero, static_cast<double>(formula(
                                          loads, loads, restores)))
                    << spec.label << " seed " << seed;
            }
        }
    }
}

TEST(DeltaModel, EveryLoggedFig3SquashStallsForT4PlusTheFormula)
{
    for (unsigned loads = 1; loads <= 8; ++loads) {
        const ExperimentSpec spec = rowSpec(false, loads);
        Session session(spec, Rng::deriveSeed(1, loads));
        UnxpecAttack &attack = session.unxpec();
        const CleanupEngine &engine = session.core().cleanup();
        for (const int secret : {0, 1}) {
            attack.setSecret(secret);
            attack.measureOnce();
            ASSERT_FALSE(engine.log().empty()) << spec.label;
            unsigned with_footprint = 0;
            for (const SquashLog &log : engine.log()) {
                EXPECT_EQ(log.stall, modelStall(log))
                    << spec.label << " secret " << secret << " squash at "
                    << log.cycle;
                with_footprint += log.l1Invalidations > 0;
            }
            // Secret 1 leaves a footprint in at least the timed squash.
            if (secret == 1) {
                EXPECT_GT(with_footprint, 0u) << spec.label;
            }
        }
        // The fence before the branch leaves no T4 wait in the timed
        // squash: Δ is the rollback alone.
        EXPECT_EQ(attack.lastDetail().cleanupStall, formula(loads, loads, 0))
            << spec.label;
    }
}

} // namespace
} // namespace unxpec
