#include "harness/session.hh"

#include <string>

#include "sim/log.hh"

namespace unxpec {

Machine &
CorePool::acquire(const SystemConfig &cfg)
{
    if (machine_ != nullptr && equalIgnoringSeed(machine_->config(), cfg)) {
        machine_->reset(cfg.seed);
    } else {
        // Free the old Machine, and the attack that references its
        // core, before building the new one: a worker never holds two.
        attack_.reset();
        machine_.reset();
        machine_ = std::make_unique<Machine>(cfg);
    }
    return *machine_;
}

UnxpecAttack &
CorePool::unxpec(const UnxpecConfig &cfg)
{
    if (attack_ != nullptr && attackCfg_ == cfg) {
        // Same (core config, attack config): the program and layout
        // are already correct; clear only the per-trial state.
        attack_->resetTrialState();
    } else {
        attack_ = std::make_unique<UnxpecAttack>(machine_->core(), cfg);
        attackCfg_ = cfg;
    }
    return *attack_;
}

SystemConfig
Session::configFor(const ExperimentSpec &spec, std::uint64_t seed)
{
    SystemConfig cfg = makeDefense(spec.defense);
    noiseProfile(spec.noise).applyTo(cfg); // DRAM-jitter component
    cfg.seed = seed;
    cfg.numCores = spec.cores;
    if (spec.tweak)
        spec.tweak(cfg);
    return cfg;
}

namespace {

/** Interrupt-noise component, core by core in index order. */
void
applyInterruptNoise(const ExperimentSpec &spec, Machine &machine)
{
    const NoiseProfile profile = noiseProfile(spec.noise);
    for (unsigned i = 0; i < machine.numCores(); ++i)
        profile.applyTo(machine.core(i));
}

} // namespace

Session::Session(const ExperimentSpec &spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), cfg_(configFor(spec, seed)),
      owned_(std::make_unique<Machine>(cfg_)), machine_(owned_.get())
{
    applyInterruptNoise(spec_, *machine_);
}

Session::Session(const TrialContext &ctx)
    : spec_(ctx.spec), seed_(ctx.seed), cfg_(configFor(ctx.spec, ctx.seed)),
      owned_(ctx.pool == nullptr ? std::make_unique<Machine>(cfg_)
                                 : nullptr),
      machine_(ctx.pool == nullptr
                   ? owned_.get()
                   : &ctx.pool->acquire(cfg_)),
      pool_(ctx.pool), fromTrial_(true), specIndex_(ctx.specIndex),
      rep_(ctx.rep)
{
    applyInterruptNoise(spec_, *machine_);
    // After acquire: Machine::reset detaches any previous trial's
    // tracer before this trial's is installed.
    if (ctx.tracer != nullptr)
        machine_->setEventTrace(ctx.tracer);
}

Session::~Session()
{
    // panic, not fatal: fatal's std::exit would run static destructors
    // under the TrialRunner's other workers.
    if (!machine_->limitTripped())
        return;
    const std::string where = fromTrial_
        ? " (spec " + std::to_string(specIndex_) + ", rep " +
            std::to_string(rep_) + ")"
        : "";
    panic("trial '", spec_.label, "'", where, " seed ", seed_,
          " stopped on the RunOptions::maxCycles cycle ceiling; its "
          "measurements are truncated (a simulator or attack bug)");
}

UnxpecAttack &
Session::unxpec()
{
    UnxpecConfig cfg = spec_.attackCfg;
    applyAttackVariant(spec_.attack, cfg);
    if (pool_ != nullptr) {
        // Pooled Machine: the attack is cached alongside it, so steady
        // state skips program assembly and layout derivation entirely.
        return pool_->unxpec(cfg);
    }
    if (!unxpec_)
        unxpec_ = std::make_unique<UnxpecAttack>(machine_->core(), cfg);
    return *unxpec_;
}

} // namespace unxpec
