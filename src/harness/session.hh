/**
 * @file
 * One trial's worth of simulation state, built declaratively from an
 * ExperimentSpec (the SimEng CoreInstance pattern): defense config
 * from the registry, noise profile folded in, the per-trial seed
 * installed, the Core constructed, and the attack objects built lazily
 * on first use. Each trial owns its own Session — which is what lets
 * the TrialRunner fan trials out across threads with no sharing.
 *
 * The Core itself can come from a per-worker CorePool: instead of
 * reallocating caches, ROB, and memory pages every trial, the pool
 * keeps one Core per spec and re-seeds it via Core::reset, which is
 * bit-identical to fresh construction with the same seed.
 */

#ifndef UNXPEC_HARNESS_SESSION_HH
#define UNXPEC_HARNESS_SESSION_HH

#include <cstdint>
#include <map>
#include <memory>

#include "attack/spectre_v1.hh"
#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"
#include "machine/machine.hh"

namespace unxpec {

class CrossCoreAttack;

/**
 * Per-worker-thread cache of Machines keyed by spec index. Not
 * thread-safe — every TrialRunner worker owns its own pool, so there
 * is no sharing to synchronize. A cached Machine is reused via
 * Machine::reset(seed) when the requested config matches the cached
 * one in everything but the seed; a genuinely different machine (a
 * spec tweak that depends on the seed, say) is rebuilt.
 *
 * Each slot also caches the spec's UnxpecAttack (unxpecFor): attack
 * construction — program assembly, data layout, eviction-set
 * derivation — is a pure function of (core config, attack config), so
 * a cached attack reset via UnxpecAttack::resetTrialState behaves
 * bit-identically to a fresh one while skipping the rebuild, which
 * dominates per-trial setup once the Machine itself is pooled.
 */
class CorePool
{
  public:
    /** The spec's Machine, reset to cfg.seed (built on first use). */
    Machine &acquire(std::size_t spec_index, const SystemConfig &cfg);

    /**
     * The slot's cached UnxpecAttack on `machine`, reset for a new
     * trial — rebuilt when the attack config (or the Machine itself)
     * changed. `machine` must be the Machine acquire() returned for
     * this spec_index.
     */
    UnxpecAttack &unxpecFor(std::size_t spec_index, Machine &machine,
                            const UnxpecConfig &cfg);

    /** Machines currently cached (tests). */
    std::size_t size() const { return slots_.size(); }

  private:
    struct Slot
    {
        SystemConfig cfg;
        std::unique_ptr<Machine> machine;
        /** Cached attack; references machine's core 0, so acquire()
         *  drops it whenever the Machine is rebuilt. */
        std::unique_ptr<UnxpecAttack> attack;
        UnxpecConfig attackCfg;
    };
    // Ordered map: spec count is tiny and acquire() runs once per
    // trial, so lookup cost is irrelevant — and an ordered container
    // can never grow a nondeterministic walk (lint_sim.py forbids
    // unordered iteration across src/).
    std::map<std::size_t, Slot> slots_;
};

/** A fully built simulation instance for one trial. */
class Session
{
  public:
    /** Build the spec's machine with an explicit seed (owned Core). */
    Session(const ExperimentSpec &spec, std::uint64_t seed);

    /**
     * Build from a TrialContext: draws the Core from ctx.pool when the
     * runner supplied one (reset to ctx.seed), otherwise owns a fresh
     * Core exactly like Session(spec, seed). When the runner armed a
     * watchdog (ctx.control), the Core gets the simulated-cycle budget
     * and the destructor reports any cycle-limit trip back so the
     * runner censors the trial.
     */
    explicit Session(const TrialContext &ctx);

    ~Session();

    /**
     * The SystemConfig a Session would run with, without building the
     * Core — for benches that need bare Cores (e.g. baseline runs).
     */
    static SystemConfig configFor(const ExperimentSpec &spec,
                                  std::uint64_t seed);

    /** The primary core (core 0 — the sender/attacker core). */
    Core &core() { return machine_->core(); }
    /** The whole machine (all cores + coherence engine). */
    Machine &machine() { return *machine_; }
    const ExperimentSpec &spec() const { return spec_; }
    const SystemConfig &config() const { return cfg_; }
    std::uint64_t seed() const { return seed_; }

    /** The spec's unXpec attack (variant + attackCfg), built lazily. */
    UnxpecAttack &unxpec();

    /** A Spectre-v1 attack on this core, built lazily. */
    SpectreV1 &spectre();

    /** The cross-core unXpec attack (needs spec.cores >= 2), lazily. */
    CrossCoreAttack &crossCore();

  private:
    ExperimentSpec spec_;
    std::uint64_t seed_;
    SystemConfig cfg_;
    std::unique_ptr<Machine> owned_; //!< empty when pooled
    Machine *machine_;
    TrialControl *control_ = nullptr; //!< runner watchdog, may be null
    CorePool *pool_ = nullptr;        //!< set when the Machine is pooled
    std::size_t specIndex_ = 0;
    std::unique_ptr<UnxpecAttack> unxpec_; //!< owned-Machine path only
    std::unique_ptr<SpectreV1> spectre_;
    std::unique_ptr<CrossCoreAttack> crossCore_;
};

} // namespace unxpec

#endif // UNXPEC_HARNESS_SESSION_HH
