/**
 * @file
 * Machine layer: N real Core instances — each with private L1I/L1D —
 * sharing one L2 and one MainMemory (core 0's) through an explicit
 * MESI CoherenceEngine. Core 0 runs every program; cores 1..N-1 never
 * run one and never advance their clocks. They are snoop targets:
 * every L1 miss of core 0 snoops their (empty) private caches through
 * the engine, which is the coherence traffic a multi-core trial
 * measures.
 *
 * Determinism rules (DESIGN.md "Machine and coherence"):
 *   - cores are constructed and reset strictly in index order;
 *   - the engine holds no clock and draws no randomness — every
 *     coherence transaction happens synchronously inside the
 *     requesting core's access;
 *   - per-core seeds are derived from the machine seed with
 *     Rng::deriveSeed, so results are a pure function of
 *     (config, seed, programs).
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

    /** Core `index`: 0 runs every program and owns the shared levels;
     *  1..N-1 are snoop targets. */
    Core &core(unsigned index = 0) { return *cores_[index]; }
    const Core &core(unsigned index = 0) const { return *cores_[index]; }

    /** The coherence engine; nullptr on a single-core machine. */
    CoherenceEngine *coherence() { return engine_.get(); }

    /**
     * Machine-wide reset: bit-identical to constructing
     * Machine(cfg with seed) — core 0 first (it reseeds the shared
     * L2/memory), then the remaining cores with re-derived seeds.
     */
    void reset(std::uint64_t seed);

    /** True when any core tripped RunOptions::maxCycles. */
    bool limitTripped() const;

    /** Attach an event tracer to every core (and the engine). */
    void setEventTrace(Tracer *tracer);

    /**
     * Whole-machine invariant audit: every core's structures plus the
     * cross-core coherence invariants. Throws AuditError.
     */
    void auditInvariants() const;

    const SystemConfig &config() const { return cfg_; }

    /** Seed for core `index` under machine seed `seed`: the seed its
     *  Rng starts from after reset(seed). */
    static std::uint64_t coreSeed(std::uint64_t seed, unsigned index);

  private:
    SystemConfig cfg_;
    std::unique_ptr<CoherenceEngine> engine_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace unxpec

#endif // UNXPEC_MACHINE_MACHINE_HH
