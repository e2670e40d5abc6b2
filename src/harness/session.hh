/**
 * @file
 * One trial's worth of simulation state, built declaratively from an
 * ExperimentSpec (the SimEng CoreInstance pattern): defense config
 * from the registry, noise profile folded in, the per-trial seed
 * installed, the Core constructed, and the attack objects built lazily
 * on first use. Each trial owns its own Session — which is what lets
 * the TrialRunner fan trials out across threads with no sharing.
 *
 * The Machine itself can come from the worker's CorePool: instead of
 * reallocating caches, ROB, and memory pages every trial, the pool
 * keeps the worker's last Machine and re-seeds it via Machine::reset
 * when the next trial's config matches, which is bit-identical to
 * fresh construction with the same seed.
 */

#ifndef UNXPEC_HARNESS_SESSION_HH
#define UNXPEC_HARNESS_SESSION_HH

#include <cstdint>
#include <memory>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"
#include "machine/machine.hh"

namespace unxpec {

/**
 * One worker thread's Machine: the last one it built, and its cached
 * UnxpecAttack. Not thread-safe — every TrialRunner worker owns its
 * own pool, so there is no sharing to synchronize. The held Machine
 * is reused via Machine::reset(seed) when the next config matches its
 * own in everything but the seed; any other config replaces it, so a
 * worker never holds more than one Machine.
 *
 * The pool also caches the UnxpecAttack built on that Machine: attack
 * construction — program assembly, data layout, eviction-set
 * derivation — is a pure function of (core config, attack config), so
 * a cached attack reset via UnxpecAttack::resetTrialState behaves
 * bit-identically to a fresh one while skipping the rebuild, which
 * dominates per-trial setup once the Machine itself is pooled.
 */
class CorePool
{
  public:
    /** A Machine for cfg: the held one reset to cfg.seed, or a new one. */
    Machine &acquire(const SystemConfig &cfg);

    /**
     * The cached UnxpecAttack on the Machine acquire() last returned,
     * reset for a new trial — rebuilt when the attack config (or the
     * Machine itself) changed.
     */
    UnxpecAttack &unxpec(const UnxpecConfig &cfg);

  private:
    std::unique_ptr<Machine> machine_;
    /** Cached attack; references machine_'s core 0, so acquire()
     *  drops it whenever the Machine is replaced. */
    std::unique_ptr<UnxpecAttack> attack_;
    UnxpecConfig attackCfg_;
};

/** A fully built simulation instance for one trial. */
class Session
{
  public:
    /** Build the spec's machine with an explicit seed (owned Core). */
    Session(const ExperimentSpec &spec, std::uint64_t seed);

    /**
     * Build from a TrialContext: draws the Machine from ctx.pool when
     * the runner supplied one (reset to ctx.seed), otherwise owns a
     * fresh Machine exactly like Session(spec, seed). When the runner
     * armed a watchdog (ctx.control), the Machine gets the
     * simulated-cycle budget and the destructor reports any
     * cycle-limit trip back so the runner censors the trial.
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

  private:
    ExperimentSpec spec_;
    std::uint64_t seed_;
    SystemConfig cfg_;
    std::unique_ptr<Machine> owned_; //!< empty when pooled
    Machine *machine_;
    TrialControl *control_ = nullptr; //!< runner watchdog, may be null
    CorePool *pool_ = nullptr;        //!< set when the Machine is pooled
    std::unique_ptr<UnxpecAttack> unxpec_; //!< owned-Machine path only
};

} // namespace unxpec

#endif // UNXPEC_HARNESS_SESSION_HH
