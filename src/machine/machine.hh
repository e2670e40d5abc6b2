/**
 * @file
 * Machine layer: N real Core instances — each with private L1I/L1D —
 * sharing one L2 and one MainMemory (core 0's) through an explicit
 * MESI CoherenceEngine. Programs run one core at a time (runOn), in
 * the order the caller issues them.
 *
 * Determinism rules (DESIGN.md "Machine and coherence"):
 *   - cores are constructed and reset strictly in index order;
 *   - the engine holds no clock and draws no randomness — every
 *     coherence transaction happens synchronously inside the
 *     requesting core's access;
 *   - per-core seeds are derived from the machine seed with
 *     Rng::deriveSeed, so results are a pure function of
 *     (config, seed, programs);
 *   - clocks are synchronized (Core::advanceTo, never backwards)
 *     before each run phase so cross-core fillCycle comparisons are
 *     meaningful.
 *
 * A Machine with numCores == 1 builds exactly the historical
 * one-Core simulator — no engine is attached and every new code path
 * is skipped, which is what keeps 1-core artifacts byte-identical
 * (tests/golden).
 */

#ifndef UNXPEC_MACHINE_MACHINE_HH
#define UNXPEC_MACHINE_MACHINE_HH

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "memory/coherence.hh"
#include "sim/config.hh"

namespace unxpec {

class Machine
{
  public:
    explicit Machine(const SystemConfig &cfg);

    // Cores hold references into the machine's shared levels.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Core `index` (0 is the primary core owning the shared levels). */
    Core &core(unsigned index = 0) { return *cores_[index]; }
    const Core &core(unsigned index = 0) const { return *cores_[index]; }

    /** The coherence engine; nullptr on a single-core machine. */
    CoherenceEngine *coherence() { return engine_.get(); }

    /** Run a program on the primary core (single-core compat path). */
    RunResult run(const Program &program, const RunOptions &options = {});

    /**
     * Run a program on one specific core. Clocks are synchronized
     * first so the core observes every older remote fill as landed.
     */
    RunResult runOn(unsigned index, const Program &program,
                    const RunOptions &options = {});

    /** Lift every core's clock to the machine-wide maximum. */
    void syncClocks();

    /**
     * Machine-wide reset: bit-identical to constructing
     * Machine(cfg with seed) — core 0 first (it reseeds the shared
     * L2/memory), then the remaining cores with re-derived seeds.
     */
    void reset(std::uint64_t seed);

    /** Trial cycle watchdog, applied to every core (Session). */
    void setCycleBudget(std::uint64_t cycles);

    /** True when any core tripped a cycle limit (censoring). */
    bool limitTripped() const;

    /** Attach an event tracer to every core (and the engine). */
    void setEventTrace(Tracer *tracer);

    /**
     * Whole-machine invariant audit: every core's structures plus the
     * cross-core coherence invariants. Throws AuditError.
     */
    void auditInvariants() const;

    const SystemConfig &config() const { return cfg_; }

  private:
    /** Seed for core `index` under machine seed `seed`. */
    static std::uint64_t coreSeed(std::uint64_t seed, unsigned index);

    SystemConfig cfg_;
    std::unique_ptr<CoherenceEngine> engine_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace unxpec

#endif // UNXPEC_MACHINE_MACHINE_HH
