#include "harness/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "sim/log.hh"

namespace unxpec {

namespace {

bool
isInteger(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
    }
    return true;
}

/** `value` as a decimal integer no larger than `max`; non-digits and
 *  out-of-range values are fatal, never wrapped or clamped. */
std::uint64_t
parseU64(const std::string &flag, const std::string &value,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (!isInteger(value))
        fatal(flag, " expects a non-negative integer, got '", value, "'");
    errno = 0;
    const std::uint64_t parsed = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE || parsed > max)
        fatal(flag, " value '", value, "' is out of range (max ", max, ")");
    return parsed;
}

unsigned
parseUnsigned(const std::string &flag, const std::string &value)
{
    return static_cast<unsigned>(
        parseU64(flag, value, std::numeric_limits<unsigned>::max()));
}

void
printRegistry(std::ostream &os, const char *title,
              std::vector<std::pair<std::string, std::string>> names)
{
    // Name-sorted, not registration-ordered: a new registration lands
    // in its alphabetical place instead of reshuffling the listing, so
    // tests can golden it (cli_test.cc).
    std::sort(names.begin(), names.end());
    os << title << ":\n";
    for (const auto &[name, description] : names)
        os << "  " << name << "\n      " << description << "\n";
}

} // namespace

void
printRegistries(std::ostream &os)
{
    printRegistry(os, "defenses (--mode)", defenseNames());
    printRegistry(os, "noise profiles (--noise)", noiseNames());
    printRegistry(os, "attack variants", attackNames());
}

HarnessCli::HarnessCli(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description))
{
}

HarnessCli &
HarnessCli::defaultReps(unsigned reps)
{
    reps_ = reps;
    return *this;
}

HarnessCli &
HarnessCli::defaultSeed(std::uint64_t seed)
{
    seed_ = seed;
    return *this;
}

HarnessCli &
HarnessCli::scaleOption(std::string help, std::uint64_t value)
{
    hasScale_ = true;
    scaleHelp_ = std::move(help);
    scale_ = value;
    return *this;
}

HarnessCli &
HarnessCli::textArg(std::string help, std::string value)
{
    hasText_ = true;
    textHelp_ = std::move(help);
    text_ = std::move(value);
    return *this;
}

HarnessCli &
HarnessCli::defaultMode(std::string mode)
{
    mode_ = std::move(mode);
    return *this;
}

HarnessCli &
HarnessCli::defaultNoise(std::string noise)
{
    noise_ = std::move(noise);
    return *this;
}

void
HarnessCli::usage(std::ostream &os) const
{
    os << name_ << " — " << description_ << "\n\n"
       << "usage: " << name_ << " [options]";
    if (hasScale_)
        os << " [scale]";
    if (hasText_)
        os << " [" << textHelp_ << "]";
    os << "\n\n"
       << "  --reps N       replications per experiment point (default "
       << reps_ << ")\n"
       << "  --seed S       master seed; per-trial seeds derive from it "
          "(default "
       << seed_ << ")\n"
       << "  --threads T    trial-pool width; 0 = hardware concurrency "
          "(default 0)\n"
       << "  --cores N      cores per simulated machine, sharing one L2 "
          "through MESI (default 1)\n"
       << "  --mode NAME    defense (default " << mode_ << ")\n"
       << "  --noise NAME   noise profile (default " << noise_ << ")\n";
    if (hasScale_) {
        os << "  --scale N      " << scaleHelp_ << " (default " << scale_
           << ")\n";
    }
    os << "  --json PATH    write the result as JSON "
          "(schema unxpec-experiment-v2)\n"
       << "  --csv PATH     write the result as CSV\n"
       << "  --trace PATH   capture a Chrome-trace event file "
          "(open in chrome://tracing or Perfetto)\n"
       << "  --trace-categories LIST\n"
          "                 comma list of cpu, cache, cleanup, branch, "
          "coherence, or all (default all)\n"
       << "  --trace-split  write one trace file per trial "
          "(PATH.s<spec>.r<rep>.json) instead of one merged file\n"
       << "  --campaign PATH\n"
          "                 journal every completed trial to a "
          "crash-consistent manifest\n"
       << "  --resume PATH  skip trials already journaled in PATH "
          "(implies --campaign PATH)\n"
       << "  --trial-timeout-cycles N\n"
          "                 censor trials whose simulation exceeds N "
          "simulated cycles\n"
       << "  --retries N    retry budget for censored trials and "
          "crashed shards (default 0)\n"
       << "  --shards K     fork K crash-isolated subprocess workers "
          "(requires --campaign)\n"
       << "  --matrix       matrix campaigns only: sweep every "
          "registered defense instead of the default subset\n"
       << "  --list-modes   list registered defenses, noise profiles, "
          "and attacks\n"
       << "  --help         this text\n";
}

HarnessOptions
HarnessCli::parse(int argc, char **argv) const
{
    HarnessOptions options;
    options.reps = reps_;
    options.seed = seed_;
    options.scale = scale_;
    options.text = text_;

    bool sawPositionalInt = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal(arg, " expects a value (see --help)");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else if (arg == "--list-modes") {
            printRegistries(std::cout);
            std::exit(0);
        } else if (arg == "--reps") {
            options.reps = parseUnsigned(arg, value());
            if (options.reps == 0)
                fatal("--reps must be >= 1");
        } else if (arg == "--seed") {
            options.seed = parseU64(arg, value());
        } else if (arg == "--threads") {
            options.threads = parseUnsigned(arg, value());
        } else if (arg == "--cores") {
            options.cores = parseUnsigned(arg, value());
            if (options.cores == 0 || options.cores > 16)
                fatal("--cores must be in [1, 16]");
        } else if (arg == "--mode") {
            options.mode = value();
            if (!knownDefense(options.mode))
                fatal("unknown --mode '", options.mode,
                      "' (see --list-modes)");
        } else if (arg == "--noise") {
            options.noise = value();
            if (!knownNoise(options.noise))
                fatal("unknown --noise '", options.noise,
                      "' (see --list-modes)");
        } else if (arg == "--scale" && hasScale_) {
            options.scale = parseU64(arg, value());
        } else if (arg == "--json") {
            options.jsonPath = value();
        } else if (arg == "--csv") {
            options.csvPath = value();
        } else if (arg == "--trace") {
            options.tracePath = value();
            if (!kTraceEnabled)
                warn("--trace: this binary was built with "
                     "UNXPEC_TRACE=OFF; no events will be recorded");
        } else if (arg == "--trace-categories") {
            options.traceCategories = parseTraceCategories(value());
        } else if (arg == "--trace-split") {
            options.traceSplit = true;
        } else if (arg == "--campaign") {
            options.campaignPath = value();
        } else if (arg == "--resume") {
            options.resumePath = value();
        } else if (arg == "--trial-timeout-cycles") {
            options.trialTimeoutCycles = parseU64(arg, value());
        } else if (arg == "--retries") {
            options.retries = parseUnsigned(arg, value());
        } else if (arg == "--shards") {
            options.shards = parseUnsigned(arg, value());
            if (options.shards == 0)
                fatal("--shards must be >= 1");
        } else if (arg == "--matrix") {
            options.matrix = true;
        } else if (hasScale_ && !sawPositionalInt && isInteger(arg)) {
            options.scale = parseU64("scale", arg);
            sawPositionalInt = true;
        } else if (hasText_ && arg[0] != '-') {
            options.text = arg;
        } else {
            usage(std::cerr);
            fatal("unknown argument '", arg, "'");
        }
    }
    // --resume without --campaign keeps journaling to the same
    // manifest, so a resumed-then-killed campaign can resume again.
    if (options.campaignPath.empty() && !options.resumePath.empty())
        options.campaignPath = options.resumePath;
    if (options.shards > 1 && options.campaignPath.empty())
        fatal("--shards requires --campaign PATH (crashed shard ranges "
              "are recovered through the manifest)");
    return options;
}

ExperimentSpec
HarnessCli::baseSpec(const HarnessOptions &options) const
{
    ExperimentSpec spec;
    spec.defense = options.mode.empty() ? mode_ : options.mode;
    spec.noise = options.noise.empty() ? noise_ : options.noise;
    spec.cores = options.cores;
    return spec;
}

ExperimentResult
runExperiment(const HarnessCli &cli, const HarnessOptions &options,
              const std::vector<ExperimentSpec> &specs, const TrialFn &fn)
{
    TrialRunner runner(options.threads);
    if (!options.tracePath.empty()) {
        runner.setTrace({options.tracePath, options.traceCategories,
                         options.traceSplit});
    }
    CampaignConfig campaign;
    campaign.manifestPath = options.campaignPath;
    campaign.resumePath = options.resumePath;
    campaign.experiment = cli.name();
    campaign.trialTimeoutCycles = options.trialTimeoutCycles;
    campaign.retries = options.retries;
    campaign.shards = options.shards;
    runner.setCampaign(std::move(campaign));
    return runner.runAll(cli.name(), cli.description(), specs, options.reps,
                         options.seed, fn);
}

int
finishExperiment(const ExperimentResult &result,
                 const HarnessOptions &options)
{
    const bool wrote = emitArtifacts(result, options.jsonPath,
                                     options.csvPath, std::cout);
    if (!wrote)
        return 1;
    if (result.incomplete) {
        warn("experiment '", result.experiment,
             "' is incomplete: some trials never finished (artifacts "
             "carry partial results and \"incomplete\": true)");
        return 2;
    }
    return 0;
}

} // namespace unxpec
