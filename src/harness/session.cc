#include "harness/session.hh"

#include "attack/cross_core.hh"
#include "sim/log.hh"

namespace unxpec {

Machine &
CorePool::acquire(std::size_t spec_index, const SystemConfig &cfg)
{
    Slot &slot = slots_[spec_index];
    if (slot.machine != nullptr && equalIgnoringSeed(slot.cfg, cfg)) {
        slot.machine->reset(cfg.seed);
    } else {
        // The cached attack holds references into the old Machine's
        // core; rebuilding the Machine invalidates it.
        slot.attack.reset();
        slot.machine = std::make_unique<Machine>(cfg);
    }
    slot.cfg = cfg;
    return *slot.machine;
}

UnxpecAttack &
CorePool::unxpecFor(std::size_t spec_index, Machine &machine,
                    const UnxpecConfig &cfg)
{
    const auto it = slots_.find(spec_index);
    if (it == slots_.end() || it->second.machine.get() != &machine)
        fatal("CorePool::unxpecFor: machine is not this slot's machine");
    Slot &slot = it->second;
    if (slot.attack != nullptr && slot.attackCfg == cfg) {
        // Same (core config, attack config): the program and layout
        // are already correct; clear only the per-trial state.
        slot.attack->resetTrialState();
    } else {
        slot.attack = std::make_unique<UnxpecAttack>(machine.core(), cfg);
        slot.attackCfg = cfg;
    }
    return *slot.attack;
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
                   : &ctx.pool->acquire(ctx.specIndex, cfg_)),
      pool_(ctx.pool), specIndex_(ctx.specIndex)
{
    applyInterruptNoise(spec_, *machine_);
    // After acquire: Machine::reset detaches any previous trial's
    // tracer before this trial's is installed.
    if (ctx.tracer != nullptr)
        machine_->setEventTrace(ctx.tracer);
    control_ = ctx.control;
    if (control_ != nullptr && control_->timeoutCycles > 0)
        machine_->setCycleBudget(control_->timeoutCycles);
}

Session::~Session()
{
    // Report a cycle-limit trip (campaign budget or RunOptions::
    // maxCycles) back to the runner: the trial's measurements were
    // truncated mid-flight and must be censored, not averaged.
    if (control_ != nullptr && machine_->limitTripped()) {
        control_->censored = true;
        if (control_->censorReason.empty())
            control_->censorReason = "cycle-limit";
    }
}

UnxpecAttack &
Session::unxpec()
{
    UnxpecConfig cfg = spec_.attackCfg;
    applyAttackVariant(spec_.attack, cfg);
    if (pool_ != nullptr) {
        // Pooled Machine: the attack is cached alongside it, so steady
        // state skips program assembly and layout derivation entirely.
        return pool_->unxpecFor(specIndex_, *machine_, cfg);
    }
    if (!unxpec_)
        unxpec_ = std::make_unique<UnxpecAttack>(machine_->core(), cfg);
    return *unxpec_;
}

SpectreV1 &
Session::spectre()
{
    if (!spectre_) {
        spectre_ = std::make_unique<SpectreV1>(machine_->core());
    }
    return *spectre_;
}

CrossCoreAttack &
Session::crossCore()
{
    if (!crossCore_) {
        if (machine_->numCores() < 2) {
            fatal("Session::crossCore: the cross-core attack needs "
                  "spec.cores >= 2 (got ",
                  machine_->numCores(), ")");
        }
        UnxpecConfig cfg = spec_.attackCfg;
        applyAttackVariant(spec_.attack, cfg);
        crossCore_ = std::make_unique<CrossCoreAttack>(*machine_, cfg);
    }
    return *crossCore_;
}

} // namespace unxpec
