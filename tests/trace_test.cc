/**
 * @file
 * The event-tracing layer (sim/trace.hh): ring-buffer mechanics,
 * category parsing and masking, the Chrome trace_event exporter, the
 * golden rollback sequence for the unXpec round (rollback spans only
 * when secret=1 — the paper's timing channel made visible), and the
 * guarantee that per-trial traces from a parallel TrialRunner are
 * byte-identical to serial ones.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "harness/session.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"
#include "sim/trace.hh"

namespace unxpec {
namespace {

TEST(TraceRing, OverwritesOldestAndCountsDrops)
{
    Tracer tracer(kTraceCatAll, 4);
    for (Cycle c = 1; c <= 6; ++c)
        tracer.instantAt(c, TraceKind::Commit, c);

    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);

    const std::vector<TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, static_cast<Cycle>(i + 3));

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(TraceRing, QueryFiltersByWindowAndKind)
{
    Tracer tracer;
    tracer.instantAt(10, TraceKind::Issue, 1);
    tracer.instantAt(20, TraceKind::Commit, 1);
    tracer.instantAt(30, TraceKind::Commit, 2);
    tracer.span(TraceKind::RollbackEnd, 42, 22);

    const TraceQuery query(tracer);
    EXPECT_EQ(query.eventsBetween(15, 35).size(), 2u);
    EXPECT_EQ(query.count(TraceKind::Commit), 2u);
    EXPECT_EQ(query.count(TraceKind::Commit, 25, kCycleNever), 1u);
    const auto ends = query.ofKind(TraceKind::RollbackEnd);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0].cycle, 42u);
    EXPECT_EQ(ends[0].dur, 22u);
}

TEST(TraceCategories, ParseAndFormat)
{
    EXPECT_EQ(parseTraceCategories(""), 0u);
    EXPECT_EQ(parseTraceCategories("all"), kTraceCatAll);
    EXPECT_EQ(parseTraceCategories("cpu"), kTraceCatCpu);
    EXPECT_EQ(parseTraceCategories("cpu,cleanup"),
              kTraceCatCpu | kTraceCatCleanup);
    EXPECT_EQ(parseTraceCategories("cache,branch"),
              kTraceCatCache | kTraceCatBranch);
    EXPECT_EQ(traceCategoriesToString(kTraceCatCpu | kTraceCatCleanup),
              "cpu,cleanup");
    EXPECT_EQ(parseTraceCategories(
                  traceCategoriesToString(kTraceCatAll)),
              kTraceCatAll);
}

TEST(TraceCategories, MaskGatesRecording)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    cfg.seed = 7;
    Core core(cfg);
    Tracer tracer(kTraceCatCleanup);
    core.setEventTrace(&tracer);

    UnxpecAttack attack(core);
    attack.setSecret(1);
    attack.measureOnce();

    const TraceQuery query(tracer);
    EXPECT_EQ(query.count(TraceKind::Commit), 0u);
    EXPECT_EQ(query.count(TraceKind::CacheMiss), 0u);
    EXPECT_EQ(query.count(TraceKind::BranchResolve), 0u);
    EXPECT_GT(query.count(TraceKind::RollbackEnd), 0u);
}

TEST(TraceGolden, RollbackSpanOnlyForSecretOne)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    cfg.seed = 42;
    Core core(cfg);
    Tracer tracer;
    core.setEventTrace(&tracer);
    UnxpecAttack attack(core);

    // secret=0: the transient loads hit the pre-loaded P[0]; the squash
    // has no footprint, so the measured round contains no rollback
    // events at all. That absence *is* the unXpec channel.
    attack.setSecret(0);
    const double lat0 = attack.measureOnce();
    const RoundDetail d0 = attack.lastDetail();
    ASSERT_TRUE(d0.valid);
    {
        const TraceQuery query(tracer);
        const Cycle end = d0.t0 + static_cast<Cycle>(lat0);
        EXPECT_EQ(query.count(TraceKind::RollbackBegin, d0.t0, end), 0u);
        EXPECT_EQ(query.count(TraceKind::RollbackEnd, d0.t0, end), 0u);
        // The mis-speculation itself still happened and was traced.
        EXPECT_GT(query.count(TraceKind::Squash, d0.t0, end), 0u);
    }

    // secret=1: the transient loads install flushed lines; the rollback
    // invalidates them and its stall appears as one span whose length
    // matches the instrumented cleanupStall.
    tracer.clear();
    attack.setSecret(1);
    const double lat1 = attack.measureOnce();
    const RoundDetail d1 = attack.lastDetail();
    ASSERT_TRUE(d1.valid);
    EXPECT_GT(d1.cleanupStall, 0u);

    const TraceQuery query(tracer);
    const Cycle end = d1.t0 + static_cast<Cycle>(lat1);
    EXPECT_EQ(query.count(TraceKind::RollbackBegin, d1.t0, end), 1u);
    const auto ends = query.ofKind(TraceKind::RollbackEnd, d1.t0, end);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0].dur, d1.cleanupStall);

    // Invalidation events match the instrumented per-level counts.
    std::size_t l1 = 0;
    std::size_t l2 = 0;
    for (const TraceEvent &event :
         query.ofKind(TraceKind::RollbackInvalidate, d1.t0, end)) {
        if (event.flags & kTraceFlagL1)
            ++l1;
        if (event.flags & kTraceFlagL2)
            ++l2;
    }
    EXPECT_EQ(l1, d1.invalidationsL1);
    EXPECT_EQ(l2, d1.invalidationsL2);

    // Ordering within the squash group: begin <= work <= end.
    const auto begin = query.ofKind(TraceKind::RollbackBegin, d1.t0, end);
    ASSERT_EQ(begin.size(), 1u);
    EXPECT_LE(begin[0].cycle, ends[0].cycle);
    EXPECT_EQ(ends[0].cycle - ends[0].dur, begin[0].cycle);
}

TEST(TraceLoadBlocked, OneInstantPerBlockingEpisode)
{
    // Load C waits behind two stores in turn: the first store's
    // address comes from a DRAM miss (A), the second's from a second
    // miss (B) that itself waits on A. C parks once per store, so the
    // ~200-cycle waits yield two load-blocked instants, not one per
    // blocked cycle.
    ProgramBuilder b;
    const Addr a = b.alloc(64);
    const Addr bb = b.alloc(64);
    const Addr dst = b.alloc(128);
    const Addr c = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(a));                    // seq 0
    b.li(6, 1);                                               // seq 1
    b.li(7, static_cast<std::int64_t>(c));                    // seq 2
    b.load(1, 5, 0);                                          // seq 3: A
    b.load(2, 1, static_cast<std::int64_t>(bb));              // seq 4: B
    b.store(1, static_cast<std::int64_t>(dst), 6);            // seq 5
    b.store(2, static_cast<std::int64_t>(dst + 64), 6);       // seq 6
    b.load(3, 7, 0);                                          // seq 7: C
    b.halt();

    Core core(SystemConfig::makeDefault());
    Tracer tracer(kTraceCatCpu);
    core.setEventTrace(&tracer);
    ASSERT_TRUE(core.run(b.build()).halted);

    std::vector<Cycle> blocked;
    const TraceQuery query(tracer);
    for (const TraceEvent &event : query.ofKind(TraceKind::LoadBlocked)) {
        if (event.seq == 7)
            blocked.push_back(event.cycle);
    }
    ASSERT_EQ(blocked.size(), 2u);
    EXPECT_GT(blocked[1] - blocked[0], 100u); // B's miss lies between
}

TEST(TraceChrome, WriterEmitsValidStructure)
{
    Tracer tracer;
    tracer.instantAt(5, TraceKind::Dispatch, 1, kAddrInvalid, 100);
    tracer.span(TraceKind::CacheFill, 10, 40, 2, 0x1000, 0, 1);
    tracer.span(TraceKind::RollbackEnd, 64, 22);

    std::ostringstream os;
    writeChromeTrace(os, {{"trial", tracer.events()}});
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"fill\""), std::string::npos);
    // RollbackEnd is rendered as a span covering [cycle - dur, cycle].
    EXPECT_NE(json.find("{\"name\":\"rollback\",\"cat\":\"cleanup\","
                        "\"ph\":\"X\",\"ts\":42,\"dur\":22"),
              std::string::npos);
    // Braces and brackets balance (cheap well-formedness check).
    long braces = 0;
    long brackets = 0;
    for (const char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(TraceChrome, RingWrapEmitsTruncationMarker)
{
    // Overflow a 4-slot ring: 6 events recorded, the 2 oldest lost.
    // The export must say so — a wrapped trace that silently poses as
    // complete would hide exactly the rollback prologue an analyst is
    // looking for.
    Tracer tracer(kTraceCatAll, 4);
    for (Cycle c = 1; c <= 6; ++c)
        tracer.instantAt(c, TraceKind::Commit, c);

    TraceProcess process;
    process.name = "wrapped";
    process.events = tracer.events();
    process.dropped = tracer.dropped();

    std::ostringstream os;
    writeChromeTrace(os, {process});
    const std::string json = os.str();

    // Process-scoped instant marker at the retained window's start
    // (first surviving event is cycle 3), carrying the drop count.
    EXPECT_NE(json.find("\"name\":\"trace-truncated\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":3,\"s\":\"p\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":2"), std::string::npos);
}

TEST(TraceChrome, NoTruncationMarkerWithoutWrap)
{
    Tracer tracer(kTraceCatAll, 8);
    tracer.instantAt(1, TraceKind::Commit, 1);

    TraceProcess process;
    process.name = "complete";
    process.events = tracer.events();
    process.dropped = tracer.dropped();

    std::ostringstream os;
    writeChromeTrace(os, {process});
    EXPECT_EQ(os.str().find("trace-truncated"), std::string::npos);
}

TEST(TracePaths, PerTrialNamesAreUnique)
{
    EXPECT_EQ(perTrialTracePath("out.json", 0, 1), "out.s0.r1.json");
    EXPECT_EQ(perTrialTracePath("a/b.c/out.json", 2, 0),
              "a/b.c/out.s2.r0.json");
    EXPECT_EQ(perTrialTracePath("a.dir/out", 1, 3), "a.dir/out.s1.r3");
    EXPECT_EQ(perTrialTracePath("out", 0, 0), "out.s0.r0");
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(TraceRunner, WrappedTrialTraceCarriesMarker)
{
    // Drive the wrap through the runner: a tiny per-trial ring capacity
    // (TraceConfig::capacity) guarantees a real trial overflows it, and
    // the exported file must carry the truncation marker end to end.
    std::vector<ExperimentSpec> specs(1);
    specs[0].label = "wrap";

    const std::string path = "/tmp/unxpec_trace_wrap_test.json";
    TrialRunner runner(1);
    TraceConfig trace;
    trace.path = path;
    trace.capacity = 8; // any real trial records far more than 8 events
    runner.setTrace(trace);
    runner.run(specs, 1, 42, [](const TrialContext &ctx) {
        Session session(ctx);
        session.unxpec().measureOnce();
        return TrialOutput{};
    });

    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"name\":\"trace-truncated\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceRunner, ParallelTracesMatchSerialByteForByte)
{
    std::vector<ExperimentSpec> specs(2);
    specs[0].label = "loads=1";
    specs[1].label = "loads=2";
    specs[1].attackCfg.inBranchLoads = 2;

    const TrialFn fn = [](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.setSecret(1);
        TrialOutput out;
        out.metric("latency", attack.measureOnce());
        return out;
    };

    const std::string dir = ::testing::TempDir();
    const unsigned reps = 2;

    TrialRunner serial(1);
    serial.setTrace({dir + "/serial.json", kTraceCatAll, true});
    serial.run(specs, reps, 7, fn);

    TrialRunner parallel(4);
    parallel.setTrace({dir + "/parallel.json", kTraceCatAll, true});
    parallel.run(specs, reps, 7, fn);

    for (std::size_t spec = 0; spec < specs.size(); ++spec) {
        for (unsigned rep = 0; rep < reps; ++rep) {
            const std::string a = slurp(
                perTrialTracePath(dir + "/serial.json", spec, rep));
            const std::string b = slurp(
                perTrialTracePath(dir + "/parallel.json", spec, rep));
            EXPECT_FALSE(a.empty());
            EXPECT_EQ(a, b) << "spec " << spec << " rep " << rep;
        }
    }
}

TEST(TraceRunner, MergedFileHasOneProcessPerTrial)
{
    std::vector<ExperimentSpec> specs(1);
    specs[0].label = "loads=1";

    const TrialFn fn = [](const TrialContext &ctx) {
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.setSecret(1);
        TrialOutput out;
        out.metric("latency", attack.measureOnce());
        return out;
    };

    const std::string path = ::testing::TempDir() + "/merged.json";
    TrialRunner runner(2);
    runner.setTrace({path, kTraceCatCleanup, false});
    runner.run(specs, 2, 7, fn);

    const std::string json = slurp(path);
    EXPECT_NE(json.find("loads=1 rep=0 seed="), std::string::npos);
    EXPECT_NE(json.find("loads=1 rep=1 seed="), std::string::npos);
    EXPECT_NE(json.find("\"rollback\""), std::string::npos);
}

} // namespace
} // namespace unxpec
