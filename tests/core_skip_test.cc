/**
 * @file
 * Core::run fast-forwards over quiescent cycles (Core::skipIdle); a
 * hand loop of runBegin/runStep/runFinish steps every cycle. The two
 * must be indistinguishable: the same RunResults, every cpu, cleanup
 * and cache counter (cpu.skippedCycles aside), the same resident lines
 * and later timing, the same event trace, commit trace and warnings,
 * and the same RNG stream. Checked on assembler-built programs (load,
 * store, clflush, fence, rdtscp and MUL mixes with data-dependent
 * mispredicts) under every CleanupMode, with and without interrupt
 * noise, with a warm-up point, and with cycle limits that trip inside
 * a skipped stretch. A last test pins that the skip engages at all on
 * the paper's Fig. 3 unXpec program.
 */

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "attack/unxpec.hh"
#include "cpu/assembler.hh"
#include "cpu/core.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"

namespace unxpec {
namespace {

/**
 * A random straight-line loop body over two 4 KB buffers of random
 * words: DRAM misses, dependent loads, stores (some partially
 * overlapped by a later load), clflushes, fences, rdtscps, MULs, and
 * forward branches on loaded values, which the predictor gets wrong
 * about half the time. The loop's exit branch mispredicts too.
 */
std::string
randomSource(std::uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream src;
    src << ".data buf 4096\n.data far 4096\n";
    for (unsigned word = 0; word < 512; word += 3) {
        src << ".word buf " << word * 8 << " " << rng.range(1u << 20)
            << "\n";
        src << ".word far " << word * 8 << " " << rng.range(1u << 20)
            << "\n";
    }
    src << "    li r1, buf\n    li r2, far\n    li r3, 0\n"
        << "    li r4, " << 2 + rng.range(3) << "\n"
        << "    li r13, 4032\n" // line-aligned offsets within a buffer
        << "loop:\n";

    auto reg = [&] { return 5 + rng.range(8); }; // r5..r12
    auto line = [&] { return 64 * rng.range(64); };
    unsigned labels = 0;
    std::vector<unsigned> open; // forward labels still to bind
    for (unsigned i = 0; i < 40; ++i) {
        switch (rng.range(11)) {
          case 0:
          case 1:
            src << "    load r" << reg() << ", [r" << 1 + rng.range(2)
                << "+" << line() << "]\n";
            break;
          case 2: {
            // A load whose address depends on a loaded value.
            const unsigned a = reg(), b = reg();
            src << "    and r14, r" << a << ", r13\n"
                << "    add r14, r14, r2\n"
                << "    load r" << b << ", [r14+0]\n";
            break;
          }
          case 3:
            src << "    store [r1+" << line() << "], r" << reg() << "\n";
            break;
          case 4: {
            // A byte store that a later 8-byte load partially overlaps.
            const unsigned off = line() + 8;
            src << "    store1 [r1+" << off << "], r" << reg() << "\n"
                << "    load r" << reg() << ", [r1+" << off << "]\n";
            break;
          }
          case 5:
            src << "    clflush [r" << 1 + rng.range(2) << "+" << line()
                << "]\n";
            break;
          case 6:
            src << (rng.range(2) ? "    fence\n" : "    rdtscp r15\n");
            break;
          case 7:
            src << "    mul r" << reg() << ", r" << reg() << ", r"
                << reg() << "\n";
            break;
          case 8:
            src << "    addi r" << reg() << ", r" << reg() << ", "
                << rng.range(100) << "\n";
            break;
          default:
            src << "    blt r" << reg() << ", r" << reg() << ", f"
                << labels << "\n";
            open.push_back(labels++);
            break;
        }
        if (!open.empty() && rng.range(3) == 0) {
            src << "f" << open.back() << ":\n";
            open.pop_back();
        }
    }
    for (const unsigned label : open)
        src << "f" << label << ":\n";
    src << "    addi r3, r3, 1\n    blt r3, r4, loop\n    halt\n";
    return src.str();
}

/** A cold DRAM miss feeding a dependent chain: the core idles for
 *  hundreds of cycles right after the first fetches. */
const char *const kMissChain = R"(
.data buf 64
    li r1, buf
    load r2, [r1+0]
    addi r3, r2, 1
    mul r4, r3, r3
    store [r1+8], r4
    halt
)";

struct Scenario
{
    bool noise = false;
    std::uint64_t warmup = 0;
    /** Far above any program here: a skip that wedges the core trips
     *  it in milliseconds and fails, instead of idling to 2^32. */
    std::uint64_t maxCycles = std::uint64_t{1} << 20;
    std::uint64_t budget = 0;
    unsigned rounds = 3;
};

using EventKey = std::tuple<Cycle, Cycle, SeqNum, Addr, std::uint64_t,
                            TraceKind, std::uint8_t, std::uint16_t>;

/** Everything a run leaves behind that the skip must not change. */
struct Observed
{
    std::vector<RunResult> results;
    std::string stats; //!< every counter but cpu.skippedCycles
    std::vector<Addr> l1i, l1d, l2;
    std::vector<EventKey> events;
    std::uint64_t eventsDropped = 0;
    std::string commits;
    std::string warnings;
    Cycle now = 0;
    bool limitTripped = false;
    std::uint64_t budgetLeft = 0;
    std::uint64_t rngNext = 0;
    std::uint64_t skipped = 0;
};

std::uint64_t
skippedCycles(Core &core)
{
    return core.stats().findCounter("skippedCycles")->value();
}

SystemConfig
configFor(CleanupMode mode)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupMode = mode;
    return cfg;
}

/** Reset `core` to its fresh state, then run `program` sc.rounds times
 *  back to back through Core::run (skip) or a plain runStep loop. */
Observed
drive(Core &core, const Scenario &sc, const Program &program, bool skip)
{
    core.reset(core.config().seed);
    Tracer tracer(kTraceCatAll, std::size_t{1} << 14);
    core.setEventTrace(&tracer);
    std::ostringstream commits;
    core.setTrace(&commits);
    if (sc.noise)
        core.setInterruptNoise(0.004, 5, 120);
    if (sc.budget > 0)
        core.setCycleBudget(sc.budget);

    Observed obs;
    testing::internal::CaptureStderr();
    RunOptions options;
    options.warmupInstructions = sc.warmup;
    options.maxCycles = sc.maxCycles;
    for (unsigned round = 0; round < sc.rounds; ++round) {
        options.loadData = round == 0;
        if (skip) {
            obs.results.push_back(core.run(program, options));
        } else {
            core.runBegin(program, options);
            while (core.runStep()) {
            }
            obs.results.push_back(core.runFinish());
        }
    }
    obs.warnings = testing::internal::GetCapturedStderr();

    std::ostringstream stats;
    core.stats().dump(stats);
    core.cleanup().stats().dump(stats);
    core.hierarchy().l1i().stats().dump(stats);
    core.hierarchy().l1d().stats().dump(stats);
    core.hierarchy().l2().stats().dump(stats);
    std::istringstream lines(stats.str());
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("cpu.skippedCycles", 0) != 0)
            obs.stats += line + "\n";
    }
    obs.l1i = core.hierarchy().l1i().residentLines();
    obs.l1d = core.hierarchy().l1d().residentLines();
    obs.l2 = core.hierarchy().l2().residentLines();
    for (const TraceEvent &e : tracer.events()) {
        obs.events.emplace_back(e.cycle, e.dur, e.seq, e.addr, e.arg,
                                e.kind, e.level, e.flags);
    }
    obs.eventsDropped = tracer.dropped();
    obs.commits = commits.str();
    obs.now = core.now();
    obs.limitTripped = core.limitTripped();
    obs.budgetLeft = core.cycleBudgetRemaining();
    obs.rngNext = core.rng().next();
    obs.skipped = skippedCycles(core);
    core.setEventTrace(nullptr);
    return obs;
}

void
expectSame(const Observed &skip, const Observed &step)
{
    ASSERT_EQ(skip.results.size(), step.results.size());
    for (std::size_t i = 0; i < skip.results.size(); ++i) {
        SCOPED_TRACE("round " + std::to_string(i));
        const RunResult &a = skip.results[i];
        const RunResult &b = step.results[i];
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.warmupCycles, b.warmupCycles);
        EXPECT_EQ(a.halted, b.halted);
        EXPECT_EQ(a.cycleLimitReached, b.cycleLimitReached);
        EXPECT_EQ(a.regs, b.regs);
    }
    EXPECT_EQ(skip.stats, step.stats);
    EXPECT_EQ(skip.l1i, step.l1i);
    EXPECT_EQ(skip.l1d, step.l1d);
    EXPECT_EQ(skip.l2, step.l2);
    EXPECT_EQ(skip.events.size(), step.events.size());
    EXPECT_TRUE(skip.events == step.events);
    EXPECT_EQ(skip.eventsDropped, step.eventsDropped);
    EXPECT_EQ(skip.commits, step.commits);
    EXPECT_EQ(skip.warnings, step.warnings);
    EXPECT_EQ(skip.now, step.now);
    EXPECT_EQ(skip.limitTripped, step.limitTripped);
    EXPECT_EQ(skip.budgetLeft, step.budgetLeft);
    EXPECT_EQ(skip.rngNext, step.rngNext);
    EXPECT_EQ(step.skipped, 0u);
}

constexpr CleanupMode kModes[] = {
    CleanupMode::UnsafeBaseline, CleanupMode::Cleanup_FOR_L1,
    CleanupMode::Cleanup_FOR_L1L2, CleanupMode::Cleanup_FULL,
    CleanupMode::InvisiSpec, CleanupMode::DelayOnMiss,
    CleanupMode::SafeSpec, CleanupMode::SpecBox,
    CleanupMode::CacheSquash,
};

TEST(CoreSkipTest, RunMatchesSteppingInEveryMode)
{
    // Warm-up points reached early, mid-run, and never (runFinish
    // then records the whole run).
    const std::uint64_t warmups[] = {6, 40, 100000};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Program program = Assembler::assemble(randomSource(seed));
        for (const CleanupMode mode : kModes) {
            Core core(configFor(mode));
            for (const bool noise : {false, true}) {
                Scenario sc;
                sc.noise = noise;
                sc.warmup = warmups[seed - 1];
                SCOPED_TRACE(std::string(toString(mode)) +
                             (noise ? " noise" : "") + " seed " +
                             std::to_string(seed));
                const Observed skip = drive(core, sc, program, true);
                expectSame(skip, drive(core, sc, program, false));
                // The programs wait on DRAM: some cycles were skipped.
                EXPECT_GT(skip.skipped, 0u);
            }
        }
    }
}

/**
 * Every per-run limit and every trial budget from 1 to 300 cycles on
 * the miss chain, whose run idles on a DRAM miss: the skip must stop
 * on the limit's cycle with the same warning. A limit that lands
 * inside a skipped stretch shows as one more skipped cycle than the
 * limit one cycle shorter.
 */
TEST(CoreSkipTest, CycleLimitsTripInsideSkippedStretches)
{
    const Program program = Assembler::assemble(kMissChain);
    Core core(SystemConfig::makeDefault());
    for (const bool budget : {false, true}) {
        std::uint64_t prev_skipped = 0;
        unsigned inside = 0;
        for (std::uint64_t limit = 1; limit <= 300; ++limit) {
            Scenario sc;
            sc.rounds = 1;
            (budget ? sc.budget : sc.maxCycles) = limit;
            SCOPED_TRACE((budget ? "budget " : "maxCycles ") +
                         std::to_string(limit));
            const Observed skip = drive(core, sc, program, true);
            expectSame(skip, drive(core, sc, program, false));
            if (skip.results[0].cycleLimitReached &&
                skip.skipped == prev_skipped + 1)
                ++inside;
            prev_skipped = skip.skipped;

            // Noise, and a second run that starts on a spent budget.
            sc.noise = true;
            sc.rounds = 2;
            expectSame(drive(core, sc, program, true),
                       drive(core, sc, program, false));
        }
        EXPECT_GT(inside, 100u);
    }
}

/**
 * Engagement: on the Fig. 3 unXpec program the core mostly waits on
 * the flushed f(N) chase and the probe's DRAM fills, so well over
 * half of its simulated cycles are fast-forwarded. A change that
 * silently disables the skip fails here, not only in the benchmark.
 */
TEST(CoreSkipTest, SkipsMostCyclesOfTheUnxpecRound)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    for (int round = 0; round < 4; ++round) {
        attack.setSecret(round & 1);
        attack.measureOnce();
    }
    const std::uint64_t ticks =
        core.stats().findCounter("sim_ticks")->value();
    EXPECT_GT(skippedCycles(core), ticks / 2);
}

} // namespace
} // namespace unxpec
