/**
 * @file
 * The table's lookup and runner, and the helpers both halves share.
 */

#include <iostream>

#include "experiments/parts.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace unxpec {

namespace {

HarnessCli
cliFor(const Experiment &experiment)
{
    HarnessCli cli(experiment.name, experiment.description);
    cli.defaultReps(experiment.reps).defaultSeed(experiment.seed);
    if (experiment.mode)
        cli.defaultMode(experiment.mode);
    if (experiment.noise)
        cli.defaultNoise(experiment.noise);
    if (experiment.scaleHelp)
        cli.scaleOption(experiment.scaleHelp, experiment.scale);
    if (experiment.matrix)
        cli.matrixOption();
    if (experiment.textHelp)
        cli.textArg(experiment.textHelp, experiment.text);
    return cli;
}

} // namespace

double
Experiment::paperValue(const std::string &value_name) const
{
    for (const PaperValue &value : paper) {
        if (value.name == value_name)
            return value.value;
    }
    panic("experiment '", name, "' has no paper value '", value_name, "'");
}

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> table = [] {
        std::vector<Experiment> all = figureExperiments();
        for (Experiment &study : studyExperiments())
            all.push_back(std::move(study));
        return all;
    }();
    return table;
}

std::vector<int>
randomSecret(std::uint64_t seed, unsigned bits)
{
    Rng rng(seed);
    std::vector<int> secret;
    secret.reserve(bits);
    for (unsigned i = 0; i < bits; ++i)
        secret.push_back(static_cast<int>(rng.range(2)));
    return secret;
}

int
runRegistered(const std::string &name, int argc, char **argv)
{
    const Experiment *found = nullptr;
    for (const Experiment &experiment : experiments()) {
        if (name == experiment.name)
            found = &experiment;
    }
    if (found == nullptr)
        panic("no registered experiment '", name, "'");
    const Experiment &experiment = *found;

    const HarnessCli cli = cliFor(experiment);
    const HarnessOptions options = cli.parse(argc, argv);
    ExperimentSpec base = cli.baseSpec(options);
    if (experiment.attack)
        base.attack = experiment.attack;
    const ExperimentResult result =
        runExperiment(cli, options, experiment.specs(base, options),
                      experiment.trial(options));

    const bool wrote = experiment.artifacts == nullptr ||
                       experiment.artifacts(options, result);
    experiment.print(std::cout, experiment, options, result);
    const int code = finishExperiment(result, options);
    return wrote ? code : 1;
}

} // namespace unxpec
