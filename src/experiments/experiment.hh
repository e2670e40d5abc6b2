/**
 * @file
 * The experiment table: one entry per harness bench. Each bench
 * program (bench/main.cc) is `runRegistered(NAME, argc, argv)` with its
 * own name compiled in, so an entry holds everything the program is:
 * its name and description, its HarnessCli defaults, its spec builder,
 * its trial function, its text report, and the paper values that
 * report prints beside the measured ones.
 *
 * The table is its own library (unxpec_experiments), not part of
 * unxpec_sim: the simulator and the benchmark build without it.
 */

#ifndef UNXPEC_EXPERIMENTS_EXPERIMENT_HH
#define UNXPEC_EXPERIMENTS_EXPERIMENT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/result_sink.hh"
#include "harness/cli.hh"

namespace unxpec {

/** A number the paper reports, named for the row the report prints it
 *  on (e.g. "loads=1" for Fig. 3's first row). */
struct PaperValue
{
    std::string name;
    double value;
};

struct Experiment;

/** The sweep, one spec per point, built on the run's base spec (the
 *  CLI's defense, noise and cores, and the entry's attack). */
using SpecsFn = std::vector<ExperimentSpec> (*)(const ExperimentSpec &base,
                                                const HarnessOptions &options);
/** The trial function of one run; it may own per-run state (a memo). */
using TrialFactory = TrialFn (*)(const HarnessOptions &options);
/** The text report. */
using PrintFn = void (*)(std::ostream &os, const Experiment &experiment,
                         const HarnessOptions &options,
                         const ExperimentResult &result);
/** Files written besides --json/--csv; false when one failed. */
using ArtifactsFn = bool (*)(const HarnessOptions &options,
                             const ExperimentResult &result);

/** One registered experiment. Null defaults keep HarnessCli's. */
struct Experiment
{
    const char *name;
    const char *description;
    const char *title; //!< the report's heading

    // HarnessCli defaults.
    unsigned reps = 1;
    std::uint64_t seed = 1;
    const char *mode = nullptr;
    const char *noise = nullptr;
    const char *scaleHelp = nullptr; //!< non-null: --scale is declared
    std::uint64_t scale = 0;
    bool matrix = false;             //!< --matrix is declared
    const char *textHelp = nullptr;  //!< non-null: a positional text
    const char *text = "";

    const char *attack = nullptr; //!< the base spec's attack variant

    SpecsFn specs = nullptr;
    TrialFactory trial = nullptr;
    PrintFn print = nullptr;
    ArtifactsFn artifacts = nullptr; //!< optional
    std::vector<PaperValue> paper{};

    /** The paper value named `name`; panics when there is none. */
    double paperValue(const std::string &name) const;
};

/** Every registered experiment, in bench order. */
const std::vector<Experiment> &experiments();

/**
 * Run the experiment named `name` as its bench program: parse argv
 * with its defaults, run its sweep, write its artifacts and print its
 * report. Returns the exit code; panics on an unregistered name.
 */
int runRegistered(const std::string &name, int argc, char **argv);

} // namespace unxpec

#endif // UNXPEC_EXPERIMENTS_EXPERIMENT_HH
