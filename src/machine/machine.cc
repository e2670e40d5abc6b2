#include "machine/machine.hh"

#include "sim/rng.hh"

namespace unxpec {

namespace {

/** Salted stream namespace for per-core seed derivation; disjoint from
 *  the harness's trial streams (plain indices) by construction. */
constexpr std::uint64_t kCoreSeedStream = 0xC04E5EEDull << 8;

} // namespace

std::uint64_t
Machine::coreSeed(std::uint64_t seed, unsigned index)
{
    // Core 0 keeps the machine seed so a 1-core Machine is
    // bit-identical to the historical bare Core(cfg).
    if (index == 0)
        return seed;
    return Rng::deriveSeed(seed, kCoreSeedStream + index);
}

Machine::Machine(const SystemConfig &cfg) : cfg_((cfg.validate(), cfg))
{
    if (cfg_.numCores > 1)
        engine_ = std::make_unique<CoherenceEngine>(cfg_);

    cores_.reserve(cfg_.numCores);
    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        SystemConfig core_cfg = cfg_;
        core_cfg.seed = coreSeed(cfg_.seed, i);
        MemoryHierarchy *shared =
            i > 0 ? &cores_[0]->hierarchy() : nullptr;
        cores_.push_back(std::make_unique<Core>(core_cfg, shared));
        MemoryHierarchy &hier = cores_[i]->hierarchy();
        if (engine_ != nullptr)
            hier.setCoherence(engine_.get(), i);
    }
}

void
Machine::reset(std::uint64_t seed)
{
    cfg_.seed = seed;
    // Core 0 first: its reseed() rebuilds the shared L2/MainMemory the
    // other cores point into.
    for (unsigned i = 0; i < cores_.size(); ++i)
        cores_[i]->reset(coreSeed(seed, i));
    if (engine_ != nullptr)
        engine_->resetStats();
}

bool
Machine::limitTripped() const
{
    for (const auto &core : cores_) {
        if (core->limitTripped())
            return true;
    }
    return false;
}

void
Machine::setEventTrace(Tracer *tracer)
{
    for (auto &core : cores_)
        core->setEventTrace(tracer);
    if (engine_ != nullptr)
        engine_->setTracer(tracer);
}

void
Machine::auditInvariants() const
{
    for (const auto &core : cores_)
        core->auditInvariants();
    if (engine_ != nullptr)
        engine_->auditInvariants(cores_[0]->now());
}

} // namespace unxpec
