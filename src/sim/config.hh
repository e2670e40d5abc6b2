/**
 * @file
 * System configuration. Defaults reproduce Table I of the unXpec paper
 * (the CleanupSpec gem5 setup): 1 core @ 2 GHz, out-of-order 192-entry
 * ROB, 32 KB 4-way L1I, 32 KB 8-way 64-set L1D, 2 MB 16-way shared L2,
 * 50 ns round trip to memory after L2.
 */

#ifndef UNXPEC_SIM_CONFIG_HH
#define UNXPEC_SIM_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace unxpec {

/** Cache replacement policy selector. */
enum class ReplPolicy
{
    LRU,    //!< classic least-recently-used
    Random, //!< CleanupSpec's L1 policy (hides replacement-state channels)
};

/** Index (set-mapping) function selector. */
enum class IndexPolicy
{
    Modulo, //!< conventional set index = line bits mod numSets
    Ceaser, //!< CEASER-style keyed/randomized index (CleanupSpec L2)
};

/**
 * Speculation-safety scheme. The Undo modes mirror the open-source
 * CleanupSpec scheme names used by the paper's artifact; InvisiSpec is
 * the representative *Invisible* defense (Yan et al., MICRO'18) the
 * paper contrasts Undo against: speculative loads fill a shadow buffer
 * instead of the caches and are exposed/validated at commit.
 */
enum class CleanupMode
{
    UnsafeBaseline,    //!< no rollback: transient installs persist
    Cleanup_FOR_L1,    //!< invalidate/restore in the L1 D-cache only
    Cleanup_FOR_L1L2,  //!< additionally invalidate L2 installs (paper cfg)
    InvisiSpec,        //!< Invisible: buffer speculative fills, expose
                       //!< and validate at commit
    DelayOnMiss,       //!< Invisible: serve speculative L1 hits, delay
                       //!< speculative misses until the speculation
                       //!< resolves (Sakalis et al., ISCA'19)
    SafeSpec,          //!< shadow-structure: speculative fills land in a
                       //!< shadow L1 (cleanup/safespec.hh), promoted to
                       //!< the caches at commit and discarded — for
                       //!< free — on squash (Khasawneh et al., DAC'19)
    SpecBox,           //!< label-based isolation: speculative lines are
                       //!< tagged in place, invisible to cross-core
                       //!< probes until commit, and flash-cleared at
                       //!< zero cost on squash
    CacheSquash,       //!< squash propagates into the MSHR: speculative
                       //!< misses park in cancellable MSHR entries that
                       //!< install no tags; squash cancels the fills
};

/** Human-readable name for a cleanup mode. */
const char *toString(CleanupMode mode);

/** Geometry and policies of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    unsigned sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned hitLatency = 2;       //!< cycles from access to data on a hit
    unsigned mshrs = 16;           //!< outstanding-miss registers
    ReplPolicy repl = ReplPolicy::LRU;
    IndexPolicy index = IndexPolicy::Modulo;

    unsigned numSets() const { return sizeBytes / (ways * kLineBytes); }

    bool operator==(const CacheConfig &) const = default;
};

/**
 * Latency model for the CleanupSpec rollback engine (T3-T5 of the
 * paper's Fig. 1 timeline). Invalidation walks are pipelined per cache
 * level and the two levels proceed in parallel; restoration fetches
 * evicted victims back into L1 from L2 and is also pipelined.
 *
 * The defaults are calibrated (tests/calibration_test.cc pins them) so
 * that a single squashed transient load costs ~22 cycles of rollback in
 * Cleanup_FOR_L1L2 mode, and ~32 cycles when one L1 victim must be
 * restored, matching the paper's headline measurements.
 */
struct CleanupTiming
{
    double mshrCleanCost = 4.0;   //!< T3: purge inflight transient loads
    double invFirstL1 = 4.0;      //!< first L1 invalidation
    double invNextL1 = 0.5;       //!< each further L1 invalidation
    double invFirstL2 = 18.0;     //!< first L2 invalidation (L2 walk)
    double invNextL2 = 0.5;       //!< each further L2 invalidation
    double restoreFirst = 10.0;   //!< first L1 restoration (refill from L2)
    double restoreNext = 4.2;     //!< each further restoration
    /** Constant-time rollback: stall at least this many cycles on every
     *  squash (0 disables the countermeasure). Implements the paper's
     *  "relaxed" strategy: stall = max(actual, constant). */
    unsigned constantTimeCycles = 0;
    /** Dummy-cleanup mitigation (paper §VII future work): add a random
     *  stall uniform in [0, fuzzyMaxCycles] to every squash. */
    unsigned fuzzyMaxCycles = 0;

    bool operator==(const CleanupTiming &) const = default;
};

/** Core pipeline and memory latency parameters. */
struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 192;    //!< Table I
    unsigned lsqEntries = 64;
    unsigned intAluLatency = 1;
    unsigned mulLatency = 3;
    /**
     * False models a single non-pipelined multiplier shared by every
     * MUL in flight: a new MUL cannot start before the previous one
     * drains. The busy window deliberately survives squashes — FU
     * occupancy is timing, not state, so no undo can reclaim it. This
     * is the SpectreRewind contention channel (attack/contention.hh);
     * the default keeps the historical fully pipelined unit and is
     * bit-identical to pre-knob behavior.
     */
    bool mulPipelined = true;
    unsigned branchRedirectPenalty = 3; //!< fetch bubble after squash
    unsigned clflushLatency = 30;       //!< core-visible clflush cost
    unsigned decodeDepth = 3;           //!< fetch-to-dispatch stages

    bool operator==(const CoreConfig &) const = default;
};

/** Main-memory (DRAM) model parameters. */
struct MemoryConfig
{
    unsigned accessLatency = 100; //!< 50 ns at 2 GHz (Table I)
    double jitterSigma = 0.0;     //!< gaussian latency jitter (cycles)

    bool operator==(const MemoryConfig &) const = default;
};

/** Complete system configuration (Table I defaults). */
struct SystemConfig
{
    double clockGHz = 2.0;
    CoreConfig core;
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    MemoryConfig memory;
    CleanupMode cleanupMode = CleanupMode::Cleanup_FOR_L1L2;
    CleanupTiming cleanupTiming;
    std::uint64_t seed = 1;
    /**
     * Cores in the Machine: 1 reproduces the historical single-core
     * simulator bit-for-bit; N > 1 gives every core a private L1I/L1D
     * over one shared L2/MainMemory kept coherent by the Machine's
     * CoherenceEngine. Per-core seeds are derived from `seed`.
     */
    unsigned numCores = 1;

    /** Table I configuration, CleanupSpec protections on. */
    static SystemConfig makeDefault();

    /** Same geometry with the defense disabled (UnsafeBaseline). */
    static SystemConfig makeUnsafeBaseline();

    /** Same geometry under the InvisiSpec-style Invisible defense. */
    static SystemConfig makeInvisiSpec();

    /** Same geometry under the delay-on-miss Invisible defense. */
    static SystemConfig makeDelayOnMiss();

    /** Same geometry under the SafeSpec shadow-structure defense. */
    static SystemConfig makeSafeSpec();

    /** Same geometry under SpecBox label-based isolation. */
    static SystemConfig makeSpecBox();

    /** Same geometry under CacheSquash MSHR-cancellation. */
    static SystemConfig makeCacheSquash();

    /**
     * "Noisy host" profile approximating the paper's Intel i7-8550U
     * robustness experiment (§VI-D): longer memory latency and DRAM
     * jitter so measurements carry realistic noise.
     */
    static SystemConfig makeNoisyHost();

    /** Pretty-print the configuration as a Table-I style table. */
    void print(std::ostream &os) const;

    /** Sanity-check the configuration; fatal() on user errors. */
    void validate() const;

    /** Field-wise equality, seed included. */
    bool operator==(const SystemConfig &) const = default;
};

/**
 * Equality of two system configurations ignoring `seed`. A Machine is
 * a pure function of (config, seed), so the per-thread Machine pool
 * uses this to decide whether a cached Machine can be reused via
 * Machine::reset (only the seed differs between trials of one spec) or
 * must be rebuilt (a spec tweak produced a genuinely different
 * machine).
 */
inline bool
equalIgnoringSeed(const SystemConfig &a, SystemConfig b)
{
    b.seed = a.seed;
    return a == b;
}

} // namespace unxpec

#endif // UNXPEC_SIM_CONFIG_HH
