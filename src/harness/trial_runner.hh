/**
 * @file
 * Replicated-trial execution engine. A bench hands the runner a list
 * of ExperimentSpecs (the sweep points) and a trial function; the
 * runner executes specs x reps independent trials on a std::thread
 * pool. Each trial builds its own simulation (typically via Session)
 * from a deterministic per-trial seed — Rng::deriveSeed(master,
 * specIndex * reps + rep) — and writes into a preallocated result
 * slot, so the aggregated output is bit-identical whether the pool has
 * one thread or sixteen.
 *
 * setCampaign() layers fault tolerance on top (see campaign.hh):
 * journaling every completed trial to a crash-consistent manifest,
 * resuming a killed campaign without recomputing journaled trials,
 * and censoring trials that blow a simulated-cycle budget (with
 * deterministic-seed retries). There is one campaign process; a run
 * killed from outside (OOM, preemption, Ctrl-C) is finished with
 * --resume.
 */

#ifndef UNXPEC_HARNESS_TRIAL_RUNNER_HH
#define UNXPEC_HARNESS_TRIAL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/result_sink.hh"
#include "harness/campaign.hh"
#include "harness/spec.hh"
#include "sim/trace.hh"

namespace unxpec {

class CorePool;

/**
 * Watchdog channel between the runner and one trial's simulation.
 * Session(ctx) arms every Core it builds with `timeoutCycles` (a
 * budget of simulated cycles shared by all of that Session's run()
 * calls) and raises `censored` when any run stopped on a cycle limit —
 * whether the campaign budget or RunOptions::maxCycles. The runner
 * then excludes the trial from aggregation and, retry budget
 * permitting, re-runs it under a fresh derived seed.
 */
struct TrialControl
{
    std::uint64_t timeoutCycles = 0; //!< simulated-cycle budget; 0 = off
    bool censored = false;
    std::string censorReason;
};

/** Everything one trial needs to build and run its simulation. */
struct TrialContext
{
    const ExperimentSpec &spec;
    std::size_t specIndex = 0;
    unsigned rep = 0;
    /** Per-trial seed derived from the master seed; feed to Session. */
    std::uint64_t seed = 0;
    std::uint64_t masterSeed = 0;
    /**
     * This worker thread's Machine pool, nullptr outside a
     * TrialRunner. Session(ctx) draws its Machine from here (reset to
     * ctx.seed) instead of constructing one per trial.
     */
    CorePool *pool = nullptr;
    /**
     * This trial's event tracer, nullptr when tracing is off.
     * Session(ctx) installs it on the Core; each trial owns a private
     * Tracer so parallel trials never share a ring buffer.
     */
    Tracer *tracer = nullptr;
    /**
     * Watchdog channel for this trial, owned by the runner; nullptr
     * when the trial runs outside a TrialRunner. Session(ctx) wires it
     * to the Core's cycle budget.
     */
    TrialControl *control = nullptr;
};

/** Event-trace capture settings for a run (TrialRunner::setTrace). */
struct TraceConfig
{
    /** Chrome-trace output path; empty disables tracing. */
    std::string path;
    /** Category mask recorded by every per-trial Tracer. */
    std::uint32_t categories = kTraceCatAll;
    /**
     * Write one file per trial (perTrialTracePath) instead of one
     * merged file with a process per trial.
     */
    bool split = false;
    /**
     * Per-trial ring capacity in events. When a trial overflows it,
     * the exported trace carries a "trace-truncated" marker instead of
     * silently posing as complete.
     */
    std::size_t capacity = Tracer::kDefaultCapacity;
};

/**
 * Per-trial trace file name: `path` with ".s<specIndex>.r<rep>" spliced
 * in before the extension ("out.json" -> "out.s0.r1.json"), so parallel
 * trials never collide on a file.
 */
std::string perTrialTracePath(const std::string &path,
                              std::size_t spec_index, unsigned rep);

/** One trial's measurements: scalar metrics and/or sample series. */
struct TrialOutput
{
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::vector<double>>> series;

    // Campaign bookkeeping, filled by the runner (not the trial fn).
    bool censored = false;       //!< finished but hit a watchdog budget
    std::string censorReason;    //!< e.g. "cycle-limit"
    unsigned attempt = 0;        //!< retry attempt that produced this
    std::uint64_t seedUsed = 0;  //!< seed of that attempt

    /** Record a scalar metric (one value per trial). */
    void metric(const std::string &name, double value);
    /** Record a sample vector (concatenated across trials in order). */
    void samples(const std::string &name, std::vector<double> values);
};

using TrialFn = std::function<TrialOutput(const TrialContext &)>;

/** Executes replicated trials on a thread pool. */
class TrialRunner
{
  public:
    /** `threads` == 0 selects the hardware concurrency. */
    explicit TrialRunner(unsigned threads = 0);

    /** Actual pool width trials run on. */
    unsigned threads() const { return threads_; }

    /**
     * Capture event traces: every trial gets its own Tracer (with
     * trace.categories) handed through TrialContext, and after the
     * trials finish the runner serially writes trace.path — one merged
     * Chrome-trace file with a process per trial, or per-trial files
     * when trace.split is set. An empty path (the default) disables
     * capture entirely.
     */
    void setTrace(TraceConfig trace) { trace_ = std::move(trace); }
    const TraceConfig &trace() const { return trace_; }

    /**
     * Arm the fault-tolerant campaign machinery (journaling, resume,
     * the cycle-budget censor, retries — see campaign.hh). The default
     * (empty) config preserves the plain in-process behaviour exactly.
     */
    void setCampaign(CampaignConfig campaign)
    {
        campaign_ = std::move(campaign);
    }
    const CampaignConfig &campaign() const { return campaign_; }

    /**
     * Run `reps` trials of every spec. Returns outputs[specIndex][rep],
     * identical for any thread count. Under a campaign config, trials
     * journaled in the resume manifest are spliced in without
     * recomputation. Trials start in job order (spec-major), except
     * that the first pending rep of every spec is dispatched before
     * all others.
     */
    std::vector<std::vector<TrialOutput>>
    run(const std::vector<ExperimentSpec> &specs, unsigned reps,
        std::uint64_t master_seed, const TrialFn &fn) const;

    /**
     * run() + aggregation: one ResultRow per spec, whose metrics carry
     * the per-rep values (scalar metrics) or the in-order
     * concatenation of all reps' samples (series), each summarized.
     * Censored trials are excluded from the metrics and surfaced
     * through the row's trial counts.
     */
    ExperimentResult
    runAll(const std::string &experiment, const std::string &description,
           const std::vector<ExperimentSpec> &specs, unsigned reps,
           std::uint64_t master_seed, const TrialFn &fn) const;

  private:
    void writeTraces(const std::vector<ExperimentSpec> &specs,
                     unsigned reps,
                     const std::vector<std::vector<TrialOutput>> &outputs,
                     const std::vector<std::unique_ptr<Tracer>> &tracers)
        const;

    unsigned threads_;
    TraceConfig trace_;
    CampaignConfig campaign_;
};

} // namespace unxpec

#endif // UNXPEC_HARNESS_TRIAL_RUNNER_HH
