#include "harness/trial_runner.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "harness/session.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace unxpec {

void
TrialOutput::metric(const std::string &name, double value)
{
    metrics.emplace_back(name, value);
}

void
TrialOutput::samples(const std::string &name, std::vector<double> values)
{
    series.emplace_back(name, std::move(values));
}

TrialRunner::TrialRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
}

namespace {

CampaignEntry
entryFromOutput(std::size_t job, const TrialOutput &output)
{
    CampaignEntry entry;
    entry.job = job;
    entry.seed = output.seedUsed;
    entry.attempt = output.attempt;
    entry.censored = output.censored;
    entry.censorReason = output.censorReason;
    entry.metrics = output.metrics;
    entry.series = output.series;
    return entry;
}

TrialOutput
outputFromEntry(const CampaignEntry &entry)
{
    TrialOutput output;
    output.metrics = entry.metrics;
    output.series = entry.series;
    output.censored = entry.censored;
    output.censorReason = entry.censorReason;
    output.attempt = entry.attempt;
    output.seedUsed = entry.seed;
    return output;
}

} // namespace

std::vector<std::vector<TrialOutput>>
TrialRunner::run(const std::vector<ExperimentSpec> &specs, unsigned reps,
                 std::uint64_t master_seed, const TrialFn &fn) const
{
    if (reps == 0)
        fatal("TrialRunner: reps must be >= 1");

    const std::size_t jobs = specs.size() * reps;
    std::vector<std::string> labels;
    labels.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        labels.push_back(spec.label);
    const CampaignHeader header{campaign_.experiment,
                                master_seed,
                                specs.size(),
                                reps,
                                campaignSpecDigest(labels)};

    std::map<std::size_t, CampaignEntry> resumed;
    if (!campaign_.resumePath.empty()) {
        CampaignManifest manifest =
            loadCampaignManifest(campaign_.resumePath);
        requireCompatibleManifest(manifest, header, campaign_.resumePath);
        for (const auto &[job, entry] : manifest.entries) {
            if (job >= jobs) {
                fatal("cannot resume from '", campaign_.resumePath,
                      "': entry for job ", job, " exceeds the campaign's ",
                      jobs, " trials");
            }
        }
        resumed = std::move(manifest.entries);
    }

    std::vector<std::vector<TrialOutput>> outputs(specs.size());
    for (auto &per_spec : outputs)
        per_spec.resize(reps);

    // Splice every resumed trial straight into its slot: the journal
    // stores values at round-trip precision, so a resumed campaign's
    // aggregate is bit-identical to an uninterrupted one.
    for (const auto &[job, entry] : resumed)
        outputs[job / reps][job % reps] = outputFromEntry(entry);

    std::unique_ptr<CampaignJournal> journal;
    if (campaign_.journaling()) {
        journal = std::make_unique<CampaignJournal>(campaign_.manifestPath,
                                                    header);
        for (const auto &[job, entry] : resumed)
            journal->absorb(entry);
        // Flush immediately so the manifest exists (and is resumable)
        // even if the process dies before the first fresh trial lands.
        journal->flush();
    }

    std::vector<std::size_t> pending;
    for (std::size_t job = 0; job < jobs; ++job) {
        if (resumed.find(job) == resumed.end())
            pending.push_back(job);
    }
    // Dispatch the first pending rep of every spec before the rest.
    // A spec's reps are consecutive jobs, so in plain job order a pool
    // would start a memoized cell's reps together, and all but one
    // would wait on the first (matrixTrialFn). Every later job keeps
    // job order: a worker whose next trial has the same config (the
    // same spec, or a spec differing only in its attack) resets its
    // CorePool Machine instead of building one.
    std::vector<std::size_t> first_rep(specs.size(), reps);
    for (const std::size_t job : pending)
        first_rep[job / reps] = std::min(first_rep[job / reps], job % reps);
    std::stable_partition(pending.begin(), pending.end(),
                          [&](std::size_t job) {
                              return job % reps == first_rep[job / reps];
                          });

    // With tracing on, every trial owns a private Tracer (indexed by
    // job, so results stay thread-count independent); the files are
    // written serially after the pool drains.
    const bool tracing = !trace_.path.empty();
    std::vector<std::unique_ptr<Tracer>> tracers;
    if (tracing) {
        tracers.resize(jobs);
        if (!resumed.empty()) {
            warn("event trace: ", resumed.size(),
                 " resumed trials were not re-executed and have no trace");
        }
    }

    CrashInjector injector;

    // One attempt of one trial.
    auto attemptOnce = [&](std::size_t job, CorePool *core_pool,
                           unsigned attempt, TrialOutput &output) {
        const std::size_t spec_index = job / reps;
        const unsigned rep = static_cast<unsigned>(job % reps);
        TrialControl control;
        control.timeoutCycles = campaign_.trialTimeoutCycles;
        TrialContext ctx{specs[spec_index], spec_index, rep,
                         Rng::deriveRetrySeed(master_seed, job, attempt),
                         master_seed, core_pool};
        ctx.control = &control;
        if (tracing) {
            // A fresh ring per attempt: the exported trace belongs
            // to the attempt whose numbers made it into the row.
            tracers[job] = std::make_unique<Tracer>(trace_.categories,
                                                    trace_.capacity);
            ctx.tracer = tracers[job].get();
        }

        output = fn(ctx);
        output.censored = false;
        output.censorReason.clear();
        output.attempt = attempt;
        output.seedUsed = ctx.seed;

        if (control.censored) {
            output.censored = true;
            output.censorReason = control.censorReason.empty()
                ? "cycle-limit" : control.censorReason;
        }
    };

    // One trial end to end: the first attempt, then serial retries
    // (attempts 1..retries) while censored, each under a fresh derived
    // seed, and the journal append of the surviving attempt.
    auto work = [&](std::size_t job, CorePool *core_pool) {
        TrialOutput output;
        attemptOnce(job, core_pool, 0, output);
        for (unsigned attempt = 1;
             output.censored && attempt <= campaign_.retries; ++attempt)
            attemptOnce(job, core_pool, attempt, output);
        outputs[job / reps][job % reps] = output;
        if (journal != nullptr)
            journal->append(entryFromOutput(job, output));
        // After the flush: an injected abort leaves the trial in the
        // manifest, exercising the worst-case crash point.
        injector.onTrialComplete();
    };

    const unsigned pool = static_cast<unsigned>(
        std::min<std::size_t>(threads_, std::max<std::size_t>(
                                            pending.size(), 1)));
    if (pool <= 1) {
        {
            CorePool cores;
            for (const std::size_t job : pending)
                work(job, &cores);
        }
        if (tracing)
            writeTraces(specs, reps, outputs, tracers);
        return outputs;
    }

    // Every trial is self-contained (its own Core, its own derived
    // seed) and writes a distinct slot, so a bare atomic work counter
    // is all the coordination needed — and results cannot depend on
    // scheduling order. Each worker owns a private CorePool: a reused
    // Machine is reset to the trial's derived seed, so which worker
    // runs which trial (and in what order) still cannot affect results.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(pool);
    for (unsigned t = 0; t < pool; ++t) {
        workers.emplace_back([&] {
            CorePool cores;
            for (;;) {
                const std::size_t slot =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (slot >= pending.size())
                    return;
                work(pending[slot], &cores);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    if (tracing)
        writeTraces(specs, reps, outputs, tracers);
    return outputs;
}

std::string
perTrialTracePath(const std::string &path, std::size_t spec_index,
                  unsigned rep)
{
    const std::string tag =
        ".s" + std::to_string(spec_index) + ".r" + std::to_string(rep);
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + tag;
    }
    return path.substr(0, dot) + tag + path.substr(dot);
}

void
TrialRunner::writeTraces(
    const std::vector<ExperimentSpec> &specs, unsigned reps,
    const std::vector<std::vector<TrialOutput>> &outputs,
    const std::vector<std::unique_ptr<Tracer>> &tracers) const
{
    std::uint64_t dropped = 0;
    std::vector<TraceProcess> merged;
    for (std::size_t job = 0; job < tracers.size(); ++job) {
        if (tracers[job] == nullptr)
            continue;
        const std::size_t spec_index = job / reps;
        const unsigned rep = static_cast<unsigned>(job % reps);

        TraceProcess process;
        process.name = specs[spec_index].label.empty()
            ? "spec" + std::to_string(spec_index)
            : specs[spec_index].label;
        process.name += " rep=" + std::to_string(rep) + " seed=" +
            std::to_string(outputs[spec_index][rep].seedUsed);
        process.events = tracers[job]->events();
        process.dropped = tracers[job]->dropped();
        dropped += process.dropped;

        if (trace_.split) {
            writeChromeTraceFile(
                perTrialTracePath(trace_.path, spec_index, rep),
                {std::move(process)});
        } else {
            merged.push_back(std::move(process));
        }
    }
    if (!trace_.split)
        writeChromeTraceFile(trace_.path, merged);
    if (dropped > 0) {
        warn("event trace: ring buffer overflowed; ", dropped,
             " oldest events were dropped (the trace carries "
             "trace-truncated markers; raise Tracer capacity or narrow "
             "--trace-categories)");
    }
}

namespace {

/** Merge one spec's rep outputs into a ResultRow. */
ResultRow
aggregateRow(const ExperimentSpec &spec,
             const std::vector<TrialOutput> &reps)
{
    ResultRow row;
    row.label = spec.label;
    row.params = spec.params;

    // Scalar metrics: one value per rep that reported them, in rep
    // order. Series: concatenation across reps in rep order. Names are
    // collected first-occurrence-first so row layout is stable. One
    // pass over the outputs: an index map assigns each new name the
    // next bucket, and every value appends to its name's bucket —
    // since the walk order (reps outer, metrics then series per rep)
    // matches the old per-name rescans, the merged vectors are
    // identical.
    // Row layout comes from `names` (first-occurrence order); the map
    // is a point-lookup index only. std::map rather than unordered so
    // this export path carries no hash container at all — emission
    // order provably cannot depend on hashing (speccheck's
    // unordered-iteration rule keeps it that way).
    std::vector<std::string> names;
    std::vector<std::vector<double>> buckets;
    std::map<std::string, std::size_t> index;
    auto bucketFor = [&](const std::string &name) -> std::vector<double> & {
        const auto [it, inserted] = index.emplace(name, names.size());
        if (inserted) {
            names.push_back(name);
            buckets.emplace_back();
        }
        return buckets[it->second];
    };
    for (const TrialOutput &output : reps) {
        // Censored trials ran out of budget mid-measurement: their
        // numbers would drag timing means toward the cutoff, so they
        // are counted, never averaged.
        if (output.censored) {
            ++row.censoredTrials;
            continue;
        }
        ++row.trials;
        if (output.attempt > 0)
            ++row.retriedTrials;
        for (const auto &[name, value] : output.metrics)
            bucketFor(name).push_back(value);
        for (const auto &[name, values] : output.series) {
            std::vector<double> &bucket = bucketFor(name);
            bucket.insert(bucket.end(), values.begin(), values.end());
        }
    }

    for (std::size_t i = 0; i < names.size(); ++i) {
        row.metrics.emplace_back(names[i],
                                 MetricSeries::of(std::move(buckets[i])));
    }
    return row;
}

} // namespace

ExperimentResult
TrialRunner::runAll(const std::string &experiment,
                    const std::string &description,
                    const std::vector<ExperimentSpec> &specs, unsigned reps,
                    std::uint64_t master_seed, const TrialFn &fn) const
{
    const auto outputs = run(specs, reps, master_seed, fn);

    ExperimentResult result;
    result.experiment = experiment;
    result.description = description;
    result.masterSeed = master_seed;
    result.reps = reps;
    result.threads = threads_;
    result.mode = specs.empty() ? "" : specs.front().defense;
    for (const ExperimentSpec &spec : specs) {
        if (spec.defense != result.mode)
            result.mode = "mixed";
    }
    for (std::size_t i = 0; i < specs.size(); ++i)
        result.rows.push_back(aggregateRow(specs[i], outputs[i]));
    return result;
}

} // namespace unxpec
