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
 * Every trial runs once. A trial whose simulation trips the
 * RunOptions::maxCycles ceiling is a simulator or attack bug, and
 * Session(ctx) aborts the process naming its spec and seed; a run
 * killed from outside is simply rerun, bit-identical by construction.
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
#include "harness/spec.hh"
#include "sim/trace.hh"

namespace unxpec {

class CorePool;

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
     * Run `reps` trials of every spec. Returns outputs[specIndex][rep],
     * identical for any thread count. Trials start in job order
     * (spec-major), except that the first rep of every spec is
     * dispatched before all others.
     */
    std::vector<std::vector<TrialOutput>>
    run(const std::vector<ExperimentSpec> &specs, unsigned reps,
        std::uint64_t master_seed, const TrialFn &fn) const;

    /**
     * run() + aggregation: one ResultRow per spec, whose metrics carry
     * the per-rep values (scalar metrics) or the in-order
     * concatenation of all reps' samples (series), each summarized.
     */
    ExperimentResult
    runAll(const std::string &experiment, const std::string &description,
           const std::vector<ExperimentSpec> &specs, unsigned reps,
           std::uint64_t master_seed, const TrialFn &fn) const;

  private:
    void writeTraces(const std::vector<ExperimentSpec> &specs,
                     unsigned reps, std::uint64_t master_seed,
                     const std::vector<std::unique_ptr<Tracer>> &tracers)
        const;

    unsigned threads_;
    TraceConfig trace_;
};

} // namespace unxpec

#endif // UNXPEC_HARNESS_TRIAL_RUNNER_HH
