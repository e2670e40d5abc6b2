/**
 * @file
 * Cycle-stepped out-of-order core in the mold of gem5's O3: speculative
 * fetch down the predicted path, register renaming onto ROB tags,
 * out-of-order issue with load/store discipline, in-order commit, and
 * squash-on-mispredict that hands the transient memory footprint to
 * the CleanupSpec rollback engine.
 *
 * Microarchitectural state (caches, predictor, cleanup stats) persists
 * across run() calls, modeling the paper's attacker: sender and
 * receiver share one thread and run round after round on a warm
 * machine. Architectural state (registers, PC) resets per run.
 */

#ifndef UNXPEC_CPU_CORE_HH
#define UNXPEC_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cleanup/cleanup_engine.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/lsq.hh"
#include "cpu/program.hh"
#include "cpu/rob.hh"
#include "memory/hierarchy.hh"
#include "sim/annotate.hh"
#include "sim/config.hh"
#include "sim/ring_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace unxpec {

class Tracer;

/** Options for one program execution. */
struct RunOptions
{
    /** Stop after committing this many instructions (HALT also stops). */
    std::uint64_t maxInstructions = UINT64_MAX;
    /** Record the cycle at which this many instructions had committed
     *  (the artifact's system.cpu.fetch.startCycles). */
    std::uint64_t warmupInstructions = 0;
    /** Apply the program's initial data image to memory first. */
    bool loadData = true;
    /**
     * Safety valve against runaway programs (infinite loops, missing
     * HALT). When the budget trips, run() warns with the committed
     * instruction count and sets RunResult::cycleLimitReached so
     * callers can tell a partial result from a finished one.
     */
    static constexpr std::uint64_t kDefaultMaxCycles = 1ull << 32;
    std::uint64_t maxCycles = kDefaultMaxCycles;
};

/** Outcome of one program execution. */
struct RunResult
{
    Cycle cycles = 0;             //!< sim_ticks for this run
    std::uint64_t instructions = 0;
    Cycle warmupCycles = 0;       //!< cycle at warmupInstructions commits
    bool halted = false;
    /** RunOptions::maxCycles tripped: the result is partial. */
    bool cycleLimitReached = false;
    std::array<std::uint64_t, kNumRegs> regs{};

    std::uint64_t reg(RegIndex index) const { return regs[index]; }
};

/** Single out-of-order core plus its memory hierarchy. */
class Core
{
  public:
    /** `shared`: see MemoryHierarchy (cores 1..N-1 of a Machine). */
    explicit Core(const SystemConfig &cfg,
                  MemoryHierarchy *shared = nullptr);

    // The hierarchy and cleanup engine hold references into this
    // object; copying or moving would leave them dangling.
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /**
     * Execute a program to completion (HALT or instruction budget):
     * runBegin, then runStep with the idle cycles between steps
     * skipped (skipIdle), then runFinish. The result, every counter
     * but cpu.skippedCycles, the hierarchy state, the RNG stream and
     * the event trace are identical to stepping every cycle.
     */
    RunResult run(const Program &program, const RunOptions &options = {});

    /**
     * Stepped execution, the loop run() is built on: runBegin() latches
     * the program and per-run state, each runStep() advances exactly
     * one cycle (returning false once the run is over), and
     * runFinish() produces the RunResult. Stepping every cycle until
     * runStep() returns false gives the same outcome as run().
     */
    void runBegin(const Program &program, const RunOptions &options = {});
    bool runStep();
    RunResult runFinish();

    /**
     * Restore freshly-constructed state for a new seed without
     * reallocating caches, ROB, or memory pages: bit-identical to
     * constructing Core(cfg) with cfg.seed == seed, but allocation-free
     * so a pooled Core can be reused across trials (TrialRunner).
     */
    UNXPEC_TRANSITION("reset")
    void reset(std::uint64_t seed);

    MemoryHierarchy &hierarchy() { return hier_; }
    BimodalPredictor &predictor() { return predictor_; }
    CleanupEngine &cleanup() { return cleanup_; }
    MainMemory &mem() { return hier_.mem(); }
    Rng &rng() { return rng_; }
    StatGroup &stats() { return stats_; }
    const SystemConfig &config() const { return cfg_; }

    /** Global cycle counter (monotonic across runs). */
    Cycle now() const { return now_; }

    /**
     * Whole-trial simulated-cycle watchdog: a budget shared by every
     * subsequent run() call. Each run consumes its cycles from the
     * budget and trips RunResult::cycleLimitReached (and the
     * limitTripped() latch) once it is exhausted, so a wedged trial is
     * bounded no matter how many run() rounds it issues. 0 disables.
     * Core::reset clears the budget along with the latch.
     */
    void setCycleBudget(std::uint64_t cycles);
    /** Remaining cycles of the trial budget (0 when none set). */
    std::uint64_t cycleBudgetRemaining() const { return budgetRemaining_; }

    /**
     * True when any run() since construction/reset stopped on a cycle
     * limit (the per-run RunOptions::maxCycles safety valve or the
     * trial budget): the metrics computed from those runs are
     * truncated, and the harness marks the trial *censored* instead of
     * folding partial timings into aggregates.
     */
    bool limitTripped() const { return limitTripped_; }

    /**
     * Per-cycle probability of an external "interrupt" noise event and
     * its stall length; models other honest programs multiplexing the
     * core (§VI-D). Zero disables.
     */
    void setInterruptNoise(double per_cycle_probability,
                           unsigned min_stall, unsigned max_stall);

    /**
     * Commit trace: when set, every committed instruction emits one
     * line `cycle seq pc: disassembly [= result]`. nullptr disables.
     */
    void setTrace(std::ostream *trace) { trace_ = trace; }

    /**
     * Cycle-accurate event tracing (sim/trace.hh): attach a tracer to
     * this core and every instrumented component under it (ROB, memory
     * hierarchy, cleanup engine). nullptr detaches. The tracer must
     * outlive the core or be detached first; Core::reset detaches.
     */
    void setEventTrace(Tracer *tracer);

    /**
     * Whole-machine invariant audit (sim/audit.hh): ROB slot sets vs
     * a full scan, cache/MSHR layout coherence, and the LSQ occupancy
     * model. Throws AuditError on violation. The run loop calls this
     * every audit::period() cycles in UNXPEC_AUDIT builds; tests call
     * it directly in every build.
     */
    void auditInvariants() const;

  private:
    /**
     * One decode-queue slot: where the instruction is and what fetch
     * decided about it, not the instruction itself. Dispatch reads the
     * instruction from program_->at(pc) and copies it once, into its
     * RobEntry.
     */
    struct FetchedInst
    {
        std::size_t pc = 0;
        bool predictedTaken = false;
        Cycle availCycle = 0;
    };

    /**
     * Fast-forward over quiescent cycles: when no stage could act on
     * the next cycle, move the clock to the cycle before the earliest
     * one where a stage could (a completion, the end of a stall, a
     * decoded instruction becoming available, fetch resuming), capped
     * at the run's cycle limit and, in audit builds, at the next
     * audit cycle. The skipped cycles still draw the interrupt noise,
     * one draw per cycle as runStep does, so the RNG stream and every
     * stall it causes are unchanged.
     */
    void skipIdle();

    UNXPEC_TRANSITION("spec")
    void tickWriteback();
    UNXPEC_TRANSITION("commit")
    void tickCommit();
    /** Issue stage: marks ROB entries speculative and launches the
     *  speculative memory accesses the defenses must later undo. */
    UNXPEC_TRANSITION("spec")
    void tickIssue();
    /** Issue `entry` if nothing holds it back (true when it issued);
     *  otherwise park it on its blocker or leave it ready. */
    bool tryIssue(RobEntry &entry);
    /** Park `entry` on `blocker` (ReorderBuffer::park), counted in
     *  cpu.orderParks. */
    void park(RobEntry &entry, SeqNum blocker);
    UNXPEC_TRANSITION("spec")
    void tickDispatch();
    void tickFetch(const Program &program);

    void resolveBranch(RobEntry &branch);
    UNXPEC_ROLLBACK("*")
    void squashAfter(RobEntry &branch);
    void rebuildRat();

    void executeEntry(RobEntry &entry);
    void commitStore(RobEntry &entry);

    // --- configuration and shared state -----------------------------
    SystemConfig cfg_;
    Rng rng_;
    MemoryHierarchy hier_;
    BimodalPredictor predictor_;
    CleanupEngine cleanup_;
    LoadStoreQueue lsq_;

    StatGroup stats_;
    Counter &simTicks_;
    Counter &committedInstrs_;
    Counter &branches_;
    Counter &mispredicts_;
    Counter &loads_;
    Counter &stores_;
    Counter &skippedCycles_;
    Counter &orderParks_;

    // --- per-run state -----------------------------------------------
    const Program *program_ = nullptr;
    std::array<std::uint64_t, kNumRegs> regs_{};
    std::array<SeqNum, kNumRegs> rat_{};
    ReorderBuffer rob_;
    /** Fetched, not yet dispatched; fetch stops while it is full
     *  (fetchWidth * (decodeDepth + 2) entries). */
    RingQueue<FetchedInst> decodeQueue_;
    std::size_t fetchPC_ = 0;
    bool fetchStopped_ = false;
    Cycle fetchResumeCycle_ = 0;
    Cycle stallUntil_ = 0;
    Cycle commitStallUntil_ = 0; //!< InvisiSpec validation drain
    /** Non-pipelined multiplier busy window (core.mulPipelined=false);
     *  survives squashes — the SpectreRewind contention channel. */
    Cycle mulBusyUntil_ = 0;
    bool halted_ = false;
    SeqNum nextSeq_ = 0;
    std::uint64_t committed_ = 0;
    Cycle now_ = 0;

    // Noise injection.
    double interruptProb_ = 0.0;
    unsigned interruptMin_ = 0;
    unsigned interruptMax_ = 0;

    // Trial-level cycle watchdog (setCycleBudget).
    bool budgetSet_ = false;
    std::uint64_t budgetRemaining_ = 0;
    bool budgetWarned_ = false;
    bool limitTripped_ = false;

    // Stepped-execution state (runBegin/runStep/runFinish).
    RunOptions runOptions_;
    RunResult runResult_;
    Cycle runStart_ = 0;
    std::uint64_t runMaxCycles_ = 0;
    bool runBudgetBinding_ = false;

    // Squash scratch (reused per misprediction; capacity persists
    // after warm-up so the squash path stays allocation-free).
    std::vector<MemAccessRecord> squashRecords_;
    CleanupJob squashJob_;

    // Commit tracing.
    std::ostream *trace_ = nullptr;

    // Cycle-accurate event tracing.
    Tracer *eventTrace_ = nullptr;
};

} // namespace unxpec

#endif // UNXPEC_CPU_CORE_HH
