/**
 * @file
 * The shared bench/example command line. Every harness-driven binary
 * accepts these flags; --scale and --matrix only where the program
 * declares them (scaleOption, matrixOption):
 *
 *   --reps N       replications per experiment point
 *   --seed S       master seed (per-trial seeds derive from it)
 *   --threads T    trial-pool width <= 1024 (0 or omitted = hardware)
 *   --cores N      cores per simulated machine (shared L2 + MESI)
 *   --mode NAME    defense registry key overriding the bench default
 *   --noise NAME   noise-profile registry key overriding the default
 *   --scale N      bench-specific size knob >= 1 (samples, bits...)
 *   --json PATH    write the machine-readable result as JSON
 *   --csv PATH     write the result as CSV
 *   --trace PATH   capture a Chrome-trace event file (chrome://tracing)
 *   --trace-categories LIST  categories to record (cpu,cache,cleanup,
 *                  branch,coherence or all; default all)
 *   --trace-split  one trace file per trial instead of one merged file
 *   --matrix       sweep every registered defense (matrix campaigns)
 *   --list-modes   print registered defenses/noises/attacks and exit
 *   --help         usage
 *
 * A program that declares a text argument (textArg), e.g. an output
 * base path, takes a bare word as it (the last one given wins);
 * elsewhere a bare word is an unknown argument.
 */

#ifndef UNXPEC_HARNESS_CLI_HH
#define UNXPEC_HARNESS_CLI_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "harness/spec.hh"
#include "harness/trial_runner.hh"

namespace unxpec {

/** Parsed harness options. */
struct HarnessOptions
{
    unsigned reps = 1;
    std::uint64_t seed = 1;
    unsigned threads = 0;      //!< 0 = hardware concurrency
    unsigned cores = 1;        //!< cores per simulated machine
    std::string mode;          //!< empty = bench default defense
    std::string noise;         //!< empty = bench default noise
    std::uint64_t scale = 0;   //!< bench-specific size knob
    std::string text;          //!< free-form positional (messages etc.)
    std::string jsonPath;
    std::string csvPath;
    std::string tracePath;     //!< empty = event tracing off
    /** Parsed --trace-categories mask (default: everything). */
    std::uint32_t traceCategories = kTraceCatAll;
    bool traceSplit = false;   //!< one trace file per trial

    /** Matrix campaign: sweep every registered defense x receiver
     *  family instead of the curated default subset. */
    bool matrix = false;
};

/** Declarative CLI parser shared by all benches and examples. */
class HarnessCli
{
  public:
    HarnessCli(std::string name, std::string description);

    /** Default replication count (before --reps). Chainable. */
    HarnessCli &defaultReps(unsigned reps);
    /** Default master seed (before --seed). Chainable. */
    HarnessCli &defaultSeed(std::uint64_t seed);
    /** Enable --scale with per-bench meaning and default. Chainable. */
    HarnessCli &scaleOption(std::string help, std::uint64_t value);
    /** Enable --matrix (HarnessOptions::matrix). Chainable. */
    HarnessCli &matrixOption();
    /** Accept a free-form positional string (e.g. a message). */
    HarnessCli &textArg(std::string help, std::string value);
    /** Default defense registry key (before --mode). Chainable. */
    HarnessCli &defaultMode(std::string mode);
    /** Default noise registry key (before --noise). Chainable. */
    HarnessCli &defaultNoise(std::string noise);

    /**
     * Parse. Exits the process on --help, --list-modes, or malformed
     * or unknown arguments; otherwise returns the resolved options
     * with all defaults applied and registry names validated.
     */
    HarnessOptions parse(int argc, char **argv) const;

    /**
     * An ExperimentSpec preloaded with this run's defense and noise
     * (the CLI overrides when given, the bench defaults otherwise).
     */
    ExperimentSpec baseSpec(const HarnessOptions &options) const;

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

  private:
    void usage(std::ostream &os) const;

    std::string name_;
    std::string description_;
    unsigned reps_ = 1;
    std::uint64_t seed_ = 1;
    std::string mode_ = "cleanup_l1l2";
    std::string noise_ = "quiet";
    bool hasScale_ = false;
    std::string scaleHelp_;
    std::uint64_t scale_ = 0;
    bool hasMatrix_ = false;
    bool hasText_ = false;
    std::string textHelp_;
    std::string text_;
};

/**
 * Convenience driver: build a TrialRunner from the options, execute
 * the specs, and stamp the result with the CLI's provenance.
 */
ExperimentResult runExperiment(const HarnessCli &cli,
                               const HarnessOptions &options,
                               const std::vector<ExperimentSpec> &specs,
                               const TrialFn &fn);

/**
 * Emit --json/--csv artifacts (no-op when neither was given). Returns
 * the process exit code: 0 on success, 1 when a file failed to open.
 */
int finishExperiment(const ExperimentResult &result,
                     const HarnessOptions &options);

/**
 * The --list-modes listing: every registry printed name-sorted (the
 * registries themselves keep registration order, which moves whenever
 * a registration is added — sorting makes the listing goldenable).
 */
void printRegistries(std::ostream &os);

} // namespace unxpec

#endif // UNXPEC_HARNESS_CLI_HH
