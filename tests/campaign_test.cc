/**
 * @file
 * The fault-tolerant campaign layer: manifest round-trips (including
 * non-finite values), checkpoint/resume bit-identity, watchdog
 * censoring with deterministic retry seeds, resume provenance guards
 * (spec order, legacy headers), and the injected-crash → resume →
 * identical-result loop the campaign_crash_resume ctest exercises end
 * to end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/result_sink.hh"
#include "harness/campaign.hh"
#include "harness/session.hh"
#include "harness/trial_runner.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string
tmpPath(const std::string &name)
{
    return "/tmp/unxpec_campaign_test_" + name;
}

/**
 * Deterministic pure-computation trial: metrics and samples are a
 * function of the trial seed only, so any execution strategy (serial,
 * parallel, resumed) must reproduce them bit-exactly.
 */
TrialOutput
pureTrial(const TrialContext &ctx)
{
    Rng rng(ctx.seed);
    TrialOutput out;
    out.metric("value", static_cast<double>(rng.next() % 100000) / 7.0);
    out.samples("samples",
                {static_cast<double>(rng.next() % 1000),
                 static_cast<double>(rng.next() % 1000)});
    return out;
}

std::vector<ExperimentSpec>
twoSpecs()
{
    std::vector<ExperimentSpec> specs(2);
    specs[0].label = "a";
    specs[0].params = {{"x", 1.0}};
    specs[1].label = "b";
    specs[1].params = {{"x", 2.0}};
    return specs;
}

std::string
resultJson(const ExperimentResult &result)
{
    std::ostringstream os;
    writeJson(os, result);
    return os.str();
}

// --- retry seed derivation ----------------------------------------------

TEST(RetrySeedTest, AttemptZeroMatchesDeriveSeed)
{
    EXPECT_EQ(Rng::deriveRetrySeed(42, 7, 0), Rng::deriveSeed(42, 7));
}

TEST(RetrySeedTest, AttemptsAreDistinctFromAllFirstAttemptStreams)
{
    // Retry seeds live in a salted namespace: no retry may collide with
    // any first-attempt stream, or a retried trial would silently
    // duplicate another trial's randomness.
    std::vector<std::uint64_t> first;
    for (std::uint64_t stream = 0; stream < 256; ++stream)
        first.push_back(Rng::deriveSeed(42, stream));
    for (unsigned attempt = 1; attempt <= 3; ++attempt) {
        const std::uint64_t seed = Rng::deriveRetrySeed(42, 7, attempt);
        for (const std::uint64_t other : first)
            EXPECT_NE(seed, other);
    }
    EXPECT_NE(Rng::deriveRetrySeed(42, 7, 1),
              Rng::deriveRetrySeed(42, 7, 2));
}

// --- manifest round-trip ------------------------------------------------

TEST(CampaignJournalTest, RoundTripsEntriesBitExactly)
{
    const std::string path = tmpPath("roundtrip.jsonl");
    const CampaignHeader header{"fig_test", 42, 2, 3};

    CampaignEntry first;
    first.job = 0;
    first.seed = 0xdeadbeefcafef00dull; // needs full 64-bit round-trip
    first.attempt = 2;
    first.censored = true;
    first.censorReason = "cycle-limit+host, \"quoted\"\nnewline";
    first.metrics = {{"delta", 1.0 / 3.0}, {"nan_metric", kNaN}};
    first.series = {{"samples", {0.1, kInf, -kInf, 2.5e-308}}};

    CampaignEntry second;
    second.job = 5;
    second.seed = 7;
    second.metrics = {{"delta", 23.0}};

    {
        CampaignJournal journal(path, header);
        journal.append(first);
        journal.append(second);
    }

    const CampaignManifest manifest = loadCampaignManifest(path);
    EXPECT_EQ(manifest.header.experiment, "fig_test");
    EXPECT_EQ(manifest.header.masterSeed, 42u);
    EXPECT_EQ(manifest.header.specs, 2u);
    EXPECT_EQ(manifest.header.reps, 3u);
    ASSERT_EQ(manifest.entries.size(), 2u);

    const CampaignEntry &a = manifest.entries.at(0);
    EXPECT_EQ(a.seed, first.seed);
    EXPECT_EQ(a.attempt, 2u);
    EXPECT_TRUE(a.censored);
    EXPECT_EQ(a.censorReason, first.censorReason);
    ASSERT_EQ(a.metrics.size(), 2u);
    EXPECT_EQ(a.metrics[0].first, "delta");
    // Bit-exact double round-trip, not approximate.
    EXPECT_EQ(a.metrics[0].second, 1.0 / 3.0);
    EXPECT_TRUE(std::isnan(a.metrics[1].second));
    ASSERT_EQ(a.series.size(), 1u);
    ASSERT_EQ(a.series[0].second.size(), 4u);
    EXPECT_EQ(a.series[0].second[0], 0.1);
    EXPECT_EQ(a.series[0].second[1], kInf);
    EXPECT_EQ(a.series[0].second[2], -kInf);
    EXPECT_EQ(a.series[0].second[3], 2.5e-308);

    EXPECT_EQ(manifest.entries.at(5).metrics[0].second, 23.0);
    std::remove(path.c_str());
}

TEST(CampaignJournalTest, NoTmpFileLeftBehind)
{
    const std::string path = tmpPath("atomic.jsonl");
    {
        CampaignJournal journal(path, {"fig", 1, 1, 1});
        journal.append({});
    }
    // flush = write tmp + rename; after it returns only the manifest
    // exists.
    EXPECT_TRUE(std::ifstream(path).good());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(CampaignManifestTest, RejectsForeignManifest)
{
    const std::string path = tmpPath("foreign.jsonl");
    {
        CampaignJournal journal(path, {"fig_test", 42, 2, 3});
        journal.flush();
    }
    const CampaignManifest manifest = loadCampaignManifest(path);
    // Wrong master seed: splicing these entries would be silent data
    // corruption, so it must die loudly.
    EXPECT_EXIT(
        requireCompatibleManifest(manifest, {"fig_test", 43, 2, 3}, path),
        testing::ExitedWithCode(1), "master seed");
    EXPECT_EXIT(
        requireCompatibleManifest(manifest, {"fig_test", 42, 2, 4}, path),
        testing::ExitedWithCode(1), "shape");
    EXPECT_EXIT(
        requireCompatibleManifest(manifest, {"other_fig", 42, 2, 3}, path),
        testing::ExitedWithCode(1), "experiment");
    std::remove(path.c_str());
}

// --- checkpoint / resume ------------------------------------------------

TEST(CampaignResumeTest, ResumeSkipsJournaledTrialsAndMatchesByteForByte)
{
    const std::string manifest = tmpPath("resume.jsonl");
    const std::vector<ExperimentSpec> specs = twoSpecs();

    // Reference: uninterrupted run, no campaign machinery at all.
    TrialRunner plain(1);
    const std::string reference = resultJson(
        plain.runAll("fig_test", "d", specs, 3, 42, pureTrial));

    // Journaled run.
    TrialRunner journaled(1);
    CampaignConfig config;
    config.manifestPath = manifest;
    config.experiment = "fig_test";
    journaled.setCampaign(config);
    const std::string full = resultJson(
        journaled.runAll("fig_test", "d", specs, 3, 42, pureTrial));
    EXPECT_EQ(full, reference);

    // Simulate a mid-campaign kill: keep the header and the first 3 of
    // 6 journaled trials, exactly what an atomic-rename flush leaves.
    {
        std::ifstream in(manifest);
        std::string line;
        std::vector<std::string> lines;
        while (std::getline(in, line))
            lines.push_back(line);
        ASSERT_EQ(lines.size(), 7u); // header + 6 trials
        std::ofstream out(manifest, std::ios::trunc);
        for (std::size_t i = 0; i < 4; ++i)
            out << lines[i] << "\n";
    }

    // Resume: the 3 journaled trials are spliced, 3 are recomputed,
    // and the aggregate is byte-identical to the uninterrupted run.
    std::size_t executed = 0;
    TrialRunner resumed(1);
    config.resumePath = manifest;
    resumed.setCampaign(config);
    const std::string after = resultJson(resumed.runAll(
        "fig_test", "d", specs, 3, 42, [&](const TrialContext &ctx) {
            ++executed;
            return pureTrial(ctx);
        }));
    EXPECT_EQ(executed, 3u);
    EXPECT_EQ(after, reference);

    // The re-journaled manifest is complete again: a second resume
    // recomputes nothing.
    executed = 0;
    TrialRunner again(1);
    again.setCampaign(config);
    const std::string twice = resultJson(again.runAll(
        "fig_test", "d", specs, 3, 42, [&](const TrialContext &ctx) {
            ++executed;
            return pureTrial(ctx);
        }));
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(twice, reference);
    std::remove(manifest.c_str());
}

// --- resume provenance guards -------------------------------------------

/** Journal a full twoSpecs() campaign (2 reps, seed 42) to `manifest`. */
void
journalCampaign(const std::string &manifest)
{
    std::remove(manifest.c_str());
    TrialRunner first(1);
    CampaignConfig config;
    config.manifestPath = manifest;
    config.experiment = "fig_test";
    first.setCampaign(config);
    first.run(twoSpecs(), 2, 42, pureTrial);
}

/** The manifest's lines, header first. */
std::vector<std::string>
manifestLines(const std::string &manifest)
{
    std::vector<std::string> lines;
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Replace the manifest's header line with `header` and keep only its
 * first two entries, so a resume has journaled trials to splice and
 * fresh ones to compute.
 */
void
rewriteManifest(const std::string &manifest, const std::string &header)
{
    const std::vector<std::string> lines = manifestLines(manifest);
    ASSERT_EQ(lines.size(), 5u); // header + 4 trials
    std::ofstream out(manifest, std::ios::trunc);
    out << header << "\n" << lines[1] << "\n" << lines[2] << "\n";
}

/** Resume `manifest` over `specs` with a plain runner. */
std::string
resumeJson(const std::string &manifest,
           const std::vector<ExperimentSpec> &specs)
{
    TrialRunner runner(1);
    CampaignConfig config;
    config.manifestPath = manifest;
    config.resumePath = manifest;
    config.experiment = "fig_test";
    runner.setCampaign(config);
    return resultJson(runner.runAll("fig_test", "d", specs, 2, 42, pureTrial));
}

/** The journaled header line with `field` spliced in before its '}'. */
std::string
headerWith(const std::string &manifest, const std::string &field)
{
    std::string header = manifestLines(manifest).at(0);
    header.insert(header.size() - 1, field);
    return header;
}

TEST(CampaignResumeTest, ResumeRefusesPermutedSpecs)
{
    // Job indices are spec_index * reps + rep: a permuted spec list
    // passes the shape check (same counts) but would splice every
    // journaled trial into the wrong row.
    const std::string manifest = tmpPath("permuted.jsonl");
    journalCampaign(manifest);
    std::vector<ExperimentSpec> permuted = twoSpecs();
    std::swap(permuted[0], permuted[1]);
    EXPECT_EXIT(resumeJson(manifest, permuted), testing::ExitedWithCode(1),
                "spec digest");
    std::remove(manifest.c_str());
}

TEST(CampaignResumeTest, LegacyManifestWithoutProvenanceStillResumes)
{
    // Manifests written before the spec_digest field existed lack it;
    // resume treats that as "not recorded" and only the
    // seed/shape/experiment checks apply.
    const std::string manifest = tmpPath("legacy.jsonl");
    journalCampaign(manifest);
    const std::string header = manifestLines(manifest).at(0);
    EXPECT_NE(header.find("\"spec_digest\""), std::string::npos);
    EXPECT_EQ(header.find("\"batch\""), std::string::npos);
    rewriteManifest(manifest,
                    "{\"schema\":\"unxpec-campaign-v1\","
                    "\"experiment\":\"fig_test\",\"master_seed\":42,"
                    "\"specs\":2,\"reps\":2}");

    TrialRunner plain(1);
    const std::string reference = resultJson(
        plain.runAll("fig_test", "d", twoSpecs(), 2, 42, pureTrial));
    EXPECT_EQ(resumeJson(manifest, twoSpecs()), reference);
    std::remove(manifest.c_str());
}

TEST(CampaignResumeTest, SerialBatchHeaderResumesBitIdentically)
{
    // Journals from builds with the lock-step batch kernel recorded
    // "batch":1 for serial runs; those trials are interchangeable with
    // this build's.
    const std::string manifest = tmpPath("batch1.jsonl");
    journalCampaign(manifest);
    rewriteManifest(manifest, headerWith(manifest, ",\"batch\":1"));

    TrialRunner plain(1);
    const std::string reference = resultJson(
        plain.runAll("fig_test", "d", twoSpecs(), 2, 42, pureTrial));
    EXPECT_EQ(resumeJson(manifest, twoSpecs()), reference);
    std::remove(manifest.c_str());
}

TEST(CampaignResumeTest, LockStepBatchHeaderIsRefused)
{
    // A wider batch censored trials under a host watchdog that timed
    // each trial's share of its lock-step group; splicing them in
    // would mix censoring regimes, so resume must die loudly.
    const std::string manifest = tmpPath("batch4.jsonl");
    journalCampaign(manifest);
    rewriteManifest(manifest, headerWith(manifest, ",\"batch\":4"));
    EXPECT_EXIT(resumeJson(manifest, twoSpecs()),
                testing::ExitedWithCode(1), "lock-step batch width 4");
    std::remove(manifest.c_str());
}

// --- watchdogs and retries ----------------------------------------------

TEST(CampaignWatchdogTest, CycleBudgetCensorsTrialAndExcludesMetrics)
{
    // A 50-cycle budget is far below any real unXpec round, so every
    // trial trips it; the row must carry censored counts and no metric
    // poisoned by truncated measurements.
    std::vector<ExperimentSpec> specs(1);
    specs[0].label = "tiny-budget";

    TrialRunner runner(1);
    CampaignConfig config;
    config.trialTimeoutCycles = 50;
    runner.setCampaign(config);

    const ExperimentResult result = runner.runAll(
        "fig_test", "d", specs, 2, 42, [](const TrialContext &ctx) {
            Session session(ctx);
            session.unxpec().measureOnce();
            TrialOutput out;
            out.metric("delta", 1.0);
            return out;
        });

    const ResultRow &row = result.row(0);
    EXPECT_EQ(row.censoredTrials, 2u);
    EXPECT_EQ(row.trials, 0u);
    EXPECT_EQ(row.missingTrials, 0u);
    EXPECT_EQ(row.metric("delta"), nullptr);
    // Censored trials finished (they were not lost), so the result is
    // complete — just thinner than planned.
    EXPECT_FALSE(result.incomplete);
}

TEST(CampaignWatchdogTest, RetriesUseDerivedSeedsAndAreCounted)
{
    std::vector<ExperimentSpec> specs(1);
    specs[0].label = "flaky";

    TrialRunner runner(1);
    CampaignConfig config;
    config.retries = 3;
    runner.setCampaign(config);

    // The trial censors itself (via the runner's control channel) on
    // attempts 0 and 1 and succeeds on attempt 2 — a stand-in for a
    // trial that times out under transient conditions.
    std::vector<std::uint64_t> seeds_seen;
    const auto outputs = runner.run(
        specs, 1, 42, [&](const TrialContext &ctx) {
            seeds_seen.push_back(ctx.seed);
            if (seeds_seen.size() <= 2)
                ctx.control->censored = true;
            return pureTrial(ctx);
        });

    ASSERT_EQ(seeds_seen.size(), 3u);
    EXPECT_EQ(seeds_seen[0], Rng::deriveRetrySeed(42, 0, 0));
    EXPECT_EQ(seeds_seen[1], Rng::deriveRetrySeed(42, 0, 1));
    EXPECT_EQ(seeds_seen[2], Rng::deriveRetrySeed(42, 0, 2));

    const TrialOutput &out = outputs[0][0];
    EXPECT_FALSE(out.censored);
    EXPECT_EQ(out.attempt, 2u);
    EXPECT_EQ(out.seedUsed, seeds_seen[2]);
}

TEST(CampaignWatchdogTest, ExhaustedRetriesLeaveTrialCensored)
{
    std::vector<ExperimentSpec> specs(1);
    TrialRunner runner(1);
    CampaignConfig config;
    config.retries = 1;
    runner.setCampaign(config);

    unsigned calls = 0;
    const auto outputs =
        runner.run(specs, 1, 42, [&](const TrialContext &ctx) {
            ++calls;
            ctx.control->censored = true;
            ctx.control->censorReason = "always-bad";
            return pureTrial(ctx);
        });
    EXPECT_EQ(calls, 2u); // first attempt + one retry
    EXPECT_TRUE(outputs[0][0].censored);
    EXPECT_EQ(outputs[0][0].censorReason, "always-bad");
}

// --- injected crash -> resume ------------------------------------------

TEST(CampaignCrashTest, InjectedAbortLeavesManifestThatResumesIdentically)
{
    const std::string manifest = tmpPath("crash.jsonl");
    std::remove(manifest.c_str());
    const std::vector<ExperimentSpec> specs = twoSpecs();

    TrialRunner plain(1);
    const std::string reference = resultJson(
        plain.runAll("fig_test", "d", specs, 3, 42, pureTrial));

    // The campaign process aborts right after journaling its second
    // trial; the environment is set inside the dying statement only.
    CampaignConfig config;
    config.manifestPath = manifest;
    config.experiment = "fig_test";
    EXPECT_DEATH(
        {
            setenv("UNXPEC_CRASH_AFTER_TRIALS", "2", 1);
            TrialRunner crashing(1);
            crashing.setCampaign(config);
            crashing.runAll("fig_test", "d", specs, 3, 42, pureTrial);
        },
        "crash injection");

    // The flush precedes the abort, so both trials survive it.
    EXPECT_EQ(loadCampaignManifest(manifest).entries.size(), 2u);

    // Resuming the wreckage reuses the journaled trials and matches
    // the uninterrupted run byte for byte.
    TrialRunner resumed(1);
    config.resumePath = manifest;
    resumed.setCampaign(config);
    EXPECT_EQ(resultJson(
                  resumed.runAll("fig_test", "d", specs, 3, 42, pureTrial)),
              reference);
    EXPECT_EQ(loadCampaignManifest(manifest).entries.size(), 6u);
    std::remove(manifest.c_str());
}

} // namespace
} // namespace unxpec
