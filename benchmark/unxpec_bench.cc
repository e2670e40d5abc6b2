/**
 * @file
 * The benchmark program: runs one round of one workload (a fixed job list of
 * specs x reps on a closed-loop TrialRunner of kThreads workers), writes
 * the workload's artifacts, checks its claims, and prints one JSON line
 * describing the round. benchmark/run.py starts one process per round
 * and aggregates the lines into the benchmark's metrics.
 *
 *   unxpec_bench --workload W --seed N [--reps R] [--traced] --out DIR
 *   unxpec_bench --setup --workload W --seed N
 *   unxpec_bench --kernels --seed N
 *
 * --traced records spans around the public calls of every trial and
 * reads the simulator's stat groups (see spans.hh); it writes a Chrome
 * trace and a self-time table next to the artifacts. --setup times a
 * serial cold build of every spec's Session plus its attack object.
 * --kernels times isolated public calls (kernels.hh).
 *
 * Exit status: 0 when every output check passed, 3 when a check failed
 * (the JSON line is still printed), 1 on a usage or I/O error.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/matrix_report.hh"
#include "analysis/result_sink.hh"
#include "analysis/table.hh"
#include "attack/contention.hh"
#include "attack/victim_attack.hh"
#include "harness/matrix.hh"
#include "harness/session.hh"
#include "harness/trial_runner.hh"
#include "kernels.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "traced_matrix.hh"

using namespace unxpec;
using namespace unxpec::bench;

namespace {

/** Worker threads of every round (closed loop, one trial per worker). */
constexpr unsigned kThreads = 3;
/** Receiver samples per secret class in a `zoo` trial. */
constexpr unsigned kZooSamples = 24;
/** Known plaintexts per AES key byte in a `victims` trial. */
constexpr unsigned kVictimPlaintexts = 2;
/** Paper Fig. 3 timing difference (cycles) at 1..8 squashed loads. */
constexpr double kPaperFig03[8] = {22, 21, 22, 23, 23, 24, 25, 25};

struct Workload
{
    const char *name;
    unsigned reps; //!< default reps per spec in one round
};

// Round sizes: one to two seconds each at kThreads workers, so one
// benchmark run holds many rounds and reports their median.
constexpr Workload kWorkloads[] = {
    {"channel", 120},
    {"channel-4core", 120},
    {"zoo", 3},
    {"victims", 2},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

bool
isChannel(const std::string &name)
{
    return name == "channel" || name == "channel-4core";
}

std::vector<ExperimentSpec>
specsFor(const std::string &name)
{
    ExperimentSpec base; // cleanup_l1l2, quiet noise, one core
    if (name == "zoo")
        return matrixSpecs(base, false);
    if (name == "victims")
        return victimSpecs(base, false);
    std::vector<ExperimentSpec> specs;
    for (unsigned loads = 1; loads <= 8; ++loads) {
        ExperimentSpec spec = base;
        spec.label = "loads=" + std::to_string(loads);
        spec.cores = name == "channel-4core" ? 4 : 1;
        spec.attackCfg.inBranchLoads = loads;
        spec.with("loads", loads);
        specs.push_back(spec);
    }
    return specs;
}

/** The Fig. 3 trial of bench/fig03_timing_difference.cc, with spans
 *  (no-ops unless the round is traced). */
TrialOutput
channelTrial(const TrialContext &ctx)
{
    Span session_span("harness.session");
    Session session(ctx);
    session_span.finish();
    Span build("attack.build");
    UnxpecAttack &attack = session.unxpec();
    build.finish();
    Span run("attack.run");
    attack.setSecret(0);
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    const double one = attack.measureOnce();
    run.finish();
    recordMachine(session.machine());
    recordAttackCycles(attack.cyclesPerSample());
    TrialOutput out;
    out.metric("delta_cycles", one - zero);
    return out;
}

TrialFn
trialFnFor(const std::string &name, bool traced)
{
    if (name == "zoo")
        return traced ? tracedMatrixTrialFn(kZooSamples)
                      : matrixTrialFn(kZooSamples);
    if (name == "victims")
        return traced ? tracedVictimTrialFn(kVictimPlaintexts)
                      : victimTrialFn(kVictimPlaintexts);
    return channelTrial;
}

// --- output helpers -----------------------------------------------------

/** `text` as a JSON string literal (labels and messages: no control
 *  characters). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** One flat JSON object, written field by field. */
class JsonObject
{
  public:
    JsonObject()
    {
        os_.imbue(std::locale::classic());
        os_ << std::setprecision(17) << "{";
    }

    JsonObject &
    num(const std::string &key, double value)
    {
        this->key(key);
        os_ << value;
        return *this;
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        this->key(key);
        os_ << quoted(value);
        return *this;
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        this->key(key);
        os_ << json;
        return *this;
    }

    std::string text() const { return os_.str() + "}"; }

  private:
    void
    key(const std::string &key)
    {
        os_ << (first_ ? "" : ",") << '"' << key << "\":";
        first_ = false;
    }

    std::ostringstream os_;
    bool first_ = true;
};

std::string
jsonStrings(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += quoted(values[i]);
    }
    return out + "]";
}

std::string
jsonNumbers(const std::vector<double> &values, int precision)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::fixed << std::setprecision(precision) << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << "]";
    return os.str();
}

/** FNV-1a, 64 bit, as 16 hex digits. */
std::string
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

/**
 * Digest of everything the round simulated: the result JSON with the
 * thread count normalized, so any change to a simulated statistic
 * changes it and nothing else does.
 */
std::string
outputDigest(ExperimentResult result)
{
    result.threads = 1;
    std::ostringstream os;
    writeJson(os, result);
    return fnv1a(os.str());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
    os.close();
    if (!os) {
        std::cerr << "unxpec_bench: cannot write '" << path << "'\n";
        return false;
    }
    return true;
}

// --- output checks ------------------------------------------------------

/** Mean |delta_cycles - paper Fig. 3| over loads 1..8. */
double
paperErrCycles(const ExperimentResult &result)
{
    double total = 0.0;
    for (unsigned loads = 1; loads <= 8; ++loads) {
        total += std::abs(result.row(loads - 1).mean("delta_cycles") -
                          kPaperFig03[loads - 1]);
    }
    return total / 8.0;
}

const ResultRow *
rowLabeled(const ExperimentResult &result, const std::string &label)
{
    for (const ResultRow &row : result.rows) {
        if (row.label == label)
            return &row;
    }
    return nullptr;
}

/** The workload's claims, which hold on any seed; returns failures. */
std::vector<std::string>
checkClaims(const std::string &name, const ExperimentResult &result)
{
    std::vector<std::string> failures;
    auto fail = [&failures](const std::string &what) {
        failures.push_back(what);
    };
    if (result.incomplete)
        fail("result incomplete");
    for (const ResultRow &row : result.rows) {
        if (row.censoredTrials + row.missingTrials > 0)
            fail(row.label + ": censored or missing trials");
    }
    if (!failures.empty())
        return failures;

    if (isChannel(name)) {
        const double delta = result.row(0).mean("delta_cycles");
        if (delta < 20.0 || delta > 26.0) {
            fail("loads=1 delta_cycles " + std::to_string(delta) +
                 " outside [20, 26]");
        }
        return failures;
    }

    // Bounds on a cell's mean AUC, as CI's --assert-auc applies them.
    auto bound = [&](const std::string &label, bool at_least,
                     double limit) {
        const ResultRow *row = rowLabeled(result, label);
        const MetricSeries *auc = row ? row->metric("auc") : nullptr;
        if (auc == nullptr) {
            fail(label + ": no auc");
            return;
        }
        const double mean = auc->summary.mean;
        if (at_least ? mean < limit : mean > limit) {
            fail(label + ": mean auc " + std::to_string(mean) +
                 (at_least ? " < " : " > ") + std::to_string(limit));
        }
    };
    if (name == "zoo") {
        bound("unsafe/unxpec", true, 0.95);
        bound("unsafe/contention", true, 0.95);
        for (const char *defense : {"safespec", "specbox", "cachesquash"}) {
            bound(std::string(defense) + "/unxpec", false, 0.6);
            bound(std::string(defense) + "/contention", true, 0.95);
        }
    } else if (name == "victims") {
        // auc is the recovered fraction (at most 1), so a mean of 1
        // means every unsafe trial recovered the whole secret: 16/16
        // AES key bytes and 64/64 exponent bits.
        bound("unsafe/victim-aes", true, 1.0);
        bound("unsafe/victim-rsa", true, 1.0);
    }
    return failures;
}

// --- per-layer metrics of a traced round ----------------------------------

std::string
layerMetrics(const std::vector<TrialTrace> &trials,
             const TrialTrace &process, const ExperimentResult &result,
             double run_all_ns)
{
    std::vector<const TrialTrace *> trial_ptrs;
    SimCounts c;
    double cycles_per_run = 0.0;
    for (const TrialTrace &t : trials) {
        trial_ptrs.push_back(&t);
        c += t.counts;
        cycles_per_run += t.attackCyclesPerRun;
    }
    const auto totals = totalsByName(trial_ptrs);
    const auto outside = totalsByName({&process});
    auto total = [&](const std::map<std::string, SpanTotals> &m,
                     const char *name) {
        const auto it = m.find(name);
        return it == m.end() ? SpanTotals{} : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const SpanTotals trial = total(totals, "trial");
    const SpanTotals session = total(totals, "harness.session");
    const SpanTotals build = total(totals, "attack.build");
    const SpanTotals run = total(totals, "attack.run");
    const SpanTotals wl_run = total(totals, "workload.run");

    unsigned completed = 0;
    unsigned censored = 0;
    unsigned retried = 0;
    for (const ResultRow &row : result.rows) {
        completed += row.trials;
        censored += row.censoredTrials;
        retried += row.retriedTrials;
    }
    const double sim = static_cast<double>(c.simCycles);
    const double l1d = static_cast<double>(c.l1dHits + c.l1dMisses);
    const double l2 = static_cast<double>(c.l2Hits + c.l2Misses);

    JsonObject m;
    m.num("harness.session_us", ratio(session.totalNs, session.count) / 1e3)
        .num("harness.session_share", ratio(session.totalNs, trial.totalNs))
        .num("harness.idle_share",
             1.0 - ratio(trial.totalNs, kThreads * run_all_ns))
        .num("harness.trials", completed)
        .num("harness.censored", censored)
        .num("harness.retried", retried)
        .num("attack.build_us", ratio(build.totalNs, build.count) / 1e3)
        .num("attack.run_share", ratio(run.totalNs, trial.totalNs))
        .num("attack.cycles_per_run",
             ratio(cycles_per_run, static_cast<double>(trials.size())))
        .num("cpu.host_ns_per_cycle",
             ratio(run.totalNs + wl_run.totalNs, sim))
        .num("cpu.sim_cycles", sim)
        .num("cpu.committed_insts", static_cast<double>(c.committedInsts))
        .num("cpu.ipc", ratio(static_cast<double>(c.committedInsts), sim))
        .num("cpu.mispredicts", static_cast<double>(c.mispredicts))
        .num("cpu.loads", static_cast<double>(c.loads))
        .num("memory.l1d_accesses", l1d)
        .num("memory.l1d_miss_ratio",
             ratio(static_cast<double>(c.l1dMisses), l1d))
        .num("memory.l2_miss_ratio",
             ratio(static_cast<double>(c.l2Misses), l2))
        .num("memory.l1d_evictions", static_cast<double>(c.l1dEvictions))
        .num("coherence.snoops", static_cast<double>(c.snoops))
        .num("coherence.remote_hits", static_cast<double>(c.remoteHits))
        .num("coherence.dummy_misses", static_cast<double>(c.dummyMisses))
        .num("coherence.delayed_downgrades",
             static_cast<double>(c.delayedDowngrades))
        .num("cleanup.squashes", static_cast<double>(c.squashes))
        .num("cleanup.stall_cycles", static_cast<double>(c.stallCycles))
        .num("cleanup.invalidations_l1",
             static_cast<double>(c.invalidationsL1))
        .num("cleanup.invalidations_l2",
             static_cast<double>(c.invalidationsL2))
        .num("cleanup.restores", static_cast<double>(c.restores))
        .num("cleanup.inflight_drops", static_cast<double>(c.inflightDrops))
        .num("cleanup.shadow_discards",
             static_cast<double>(c.shadowDiscards))
        .num("cleanup.mshr_cancels", static_cast<double>(c.mshrCancels))
        .num("cleanup.stall_share",
             ratio(static_cast<double>(c.stallCycles), sim))
        .num("workload.run_share", ratio(wl_run.totalNs, trial.totalNs))
        .num("analysis.report_ms",
             total(outside, "analysis.report").totalNs / 1e6)
        .num("analysis.result_json_ms",
             total(outside, "analysis.result_json").totalNs / 1e6)
        .num("bench.span_coverage",
             1.0 - ratio(trial.selfNs, trial.totalNs));
    return m.text();
}

// --- modes --------------------------------------------------------------

struct Args
{
    std::string mode = "round"; //!< round | setup | kernels
    std::string workload;
    std::uint64_t seed = 1;
    unsigned reps = 0; //!< 0 = the workload's default
    bool traced = false;
    std::string outDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "unxpec_bench: " << why << "\n"
              << "usage: unxpec_bench --workload W --seed N [--reps R] "
                 "[--traced] --out DIR\n"
                 "       unxpec_bench --setup --workload W --seed N\n"
                 "       unxpec_bench --kernels --seed N\n"
                 "workloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(1);
}

std::uint64_t
parseNumber(const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage("expected a non-negative integer");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = parseNumber(value());
        else if (flag == "--reps")
            args.reps = static_cast<unsigned>(parseNumber(value()));
        else if (flag == "--out")
            args.outDir = value();
        else if (flag == "--traced")
            args.traced = true;
        else if (flag == "--setup")
            args.mode = "setup";
        else if (flag == "--kernels")
            args.mode = "kernels";
        else
            usage(("unknown argument " + flag).c_str());
    }
    if (args.mode != "kernels" && findWorkload(args.workload) == nullptr)
        usage("unknown or missing --workload");
    if (args.mode == "round" && args.outDir.empty())
        usage("missing --out");
    return args;
}

int
runSetup(const Args &args)
{
    const std::vector<ExperimentSpec> specs = specsFor(args.workload);
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<std::unique_ptr<ContentionAttack>> contention;
    std::vector<std::unique_ptr<VictimAttack>> victims;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &spec = specs[i];
        sessions.push_back(std::make_unique<Session>(
            spec, Rng::deriveSeed(args.seed, i)));
        Session &session = *sessions.back();
        const std::string &label = spec.label;
        if (label.find("/contention") != std::string::npos) {
            contention.push_back(
                std::make_unique<ContentionAttack>(session.core()));
        } else if (label.find("/victim-") != std::string::npos) {
            VictimAttackConfig vcfg;
            vcfg.plaintexts = kVictimPlaintexts;
            if (label.find("/victim-aes") == std::string::npos)
                vcfg.victim.kind = VictimKind::RsaSqMul;
            victims.push_back(
                std::make_unique<VictimAttack>(session.core(), vcfg));
        } else {
            session.unxpec();
        }
    }
    const std::int64_t end = nowNs();
    std::cout << JsonObject()
                     .num("setup_s", static_cast<double>(end - start) / 1e9)
                     .text()
              << "\n";
    return 0;
}

int
runKernelsMode(const Args &args)
{
    JsonObject out;
    for (const auto &[name, value] : runKernels(args.seed))
        out.num(name, value);
    std::cout << out.text() << "\n";
    return 0;
}

int
runRound(const Args &args)
{
    const Workload &workload = *findWorkload(args.workload);
    const std::string name = workload.name;
    const unsigned reps = args.reps > 0 ? args.reps : workload.reps;
    const std::vector<ExperimentSpec> specs = specsFor(name);
    const std::size_t jobs = specs.size() * reps;

    // Per-job slots: each trial writes only its own, so workers never
    // share state.
    std::vector<double> trial_ns(jobs, 0.0);
    std::vector<TrialTrace> traces(args.traced ? jobs : 0);
    TrialTrace process;
    const TrialFn inner = trialFnFor(name, args.traced);
    const TrialFn timed = [&](const TrialContext &ctx) {
        const std::size_t job = ctx.specIndex * reps + ctx.rep;
        TrialTrace *trace = args.traced ? &traces[job] : nullptr;
        if (trace != nullptr)
            trace->thread = std::this_thread::get_id();
        // A one-worker pool runs trials on the main thread, whose own
        // trace target must survive the trial.
        TrialTrace *const outer = currentTrial();
        currentTrial() = trace;
        const std::int64_t start = nowNs();
        TrialOutput out;
        {
            Span span("trial");
            out = inner(ctx);
        }
        trial_ns[job] = static_cast<double>(nowNs() - start);
        currentTrial() = outer;
        return out;
    };

    if (args.traced)
        currentTrial() = &process;
    const TrialRunner runner(kThreads);
    const std::int64_t run_start = nowNs();
    ExperimentResult result;
    {
        Span span("harness.run_all");
        result = runner.runAll(name, "unxpec benchmark workload " + name,
                               specs, reps, args.seed, timed);
    }
    const double run_all_ns = static_cast<double>(nowNs() - run_start);

    // Artifacts: the workload's report, then the result JSON.
    const std::string dir = args.outDir + "/";
    std::vector<std::pair<std::string, std::string>> files;
    double paper_err = -1.0;
    {
        Span span("analysis.report");
        std::ostringstream md;
        if (isChannel(name)) {
            TextTable table({"squashed loads", "timing difference (cycles)",
                             "paper (approx)"});
            for (unsigned loads = 1; loads <= 8; ++loads) {
                table.addRow(
                    {std::to_string(loads),
                     TextTable::num(result.row(loads - 1).mean(
                         "delta_cycles")),
                     TextTable::num(kPaperFig03[loads - 1], 0)});
            }
            table.print(md);
            paper_err = paperErrCycles(result);
        } else {
            const MatrixReport report = MatrixReport::fromResult(result);
            std::ostringstream json;
            report.writeJson(json);
            files.emplace_back(dir + "matrix.json", json.str());
            report.writeMarkdown(md);
        }
        files.emplace_back(dir + "report.md", md.str());
    }
    {
        Span span("analysis.result_json");
        std::ostringstream json;
        writeJson(json, result);
        files.emplace_back(dir + "result.json", json.str());
    }
    bool io_ok = true;
    {
        Span span("io.artifact");
        for (const auto &[path, text] : files)
            io_ok = writeFile(path, text) && io_ok;
    }
    const double wall_s = static_cast<double>(nowNs()) / 1e9;
    currentTrial() = nullptr;
    if (!io_ok)
        return 1;

    const std::vector<std::string> failures = checkClaims(name, result);
    unsigned completed = 0;
    for (const ResultRow &row : result.rows)
        completed += row.trials;

    std::vector<double> trial_ms;
    for (const double ns : trial_ns)
        trial_ms.push_back(ns / 1e6);

    JsonObject line;
    line.str("workload", name)
        .num("seed", static_cast<double>(args.seed))
        .num("reps", reps)
        .num("threads", kThreads)
        .raw("traced", args.traced ? "true" : "false")
        .num("attempted", static_cast<double>(jobs))
        .num("completed", completed)
        .num("run_all_s", run_all_ns / 1e9)
        .num("wall_s", wall_s)
        .num("peak_rss_mb", peakRssMb())
        .str("output_digest", outputDigest(result))
        .raw("check_failures", jsonStrings(failures))
        .raw("trial_ms", jsonNumbers(trial_ms, 4));
    if (paper_err >= 0.0)
        line.num("paper_err_cycles", paper_err);
    if (args.traced) {
        line.raw("layers", layerMetrics(traces, process, result,
                                        run_all_ns));
        std::ostringstream chrome;
        writeChromeTrace(chrome, traces, process);
        std::vector<const TrialTrace *> all{&process};
        for (const TrialTrace &t : traces)
            all.push_back(&t);
        std::ostringstream table;
        writeSelfTimeTable(table, totalsByName(all));
        if (!writeFile(dir + "trace.json", chrome.str()) ||
            !writeFile(dir + "selftime.md", table.str()))
            return 1;
    }
    std::cout << line.text() << "\n";
    return failures.empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.mode == "setup")
        return runSetup(args);
    if (args.mode == "kernels")
        return runKernelsMode(args);
    return runRound(args);
}
