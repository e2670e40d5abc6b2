/**
 * @file
 * Fault-tolerant campaign persistence and process machinery for the
 * TrialRunner. Three cooperating pieces:
 *
 *   - checkpoint/resume: every completed trial is journaled to an
 *     append-only manifest (`campaign.jsonl`). The in-memory journal is
 *     flushed by writing the whole file to `<path>.tmp` and atomically
 *     renaming it over `<path>`, so a crash at any instant leaves a
 *     complete, parseable manifest of every trial finished before it.
 *     `--resume <manifest>` re-loads the entries and skips the
 *     journaled (spec, rep, seed) trials — the spliced result is
 *     bit-identical to an uninterrupted run because entry values are
 *     serialized at full round-trip precision.
 *
 *   - watchdog and retries: a censored trial (one that overran its
 *     simulated-cycle budget) is retried with a fresh deterministically
 *     derived seed (Rng::deriveRetrySeed) up to the retry budget.
 *
 *   - crash-isolated shards: `--shards K` forks subprocess workers
 *     over disjoint trial ranges. A worker that dies (signal or
 *     nonzero exit) is reaped and its range re-queued — the relaunched
 *     worker resumes from the shard's own journal, so completed trials
 *     are never recomputed. Past the retry budget the campaign
 *     degrades gracefully: missing trials are flagged, not silently
 *     dropped.
 *
 * Everything here is host-side harness infrastructure — simulated time
 * stays inside the deterministic core; the wall-clock appears only in
 * the shard-crash backoff, outside any simulated path.
 */

#ifndef UNXPEC_HARNESS_CAMPAIGN_HH
#define UNXPEC_HARNESS_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace unxpec {

/** Fault-tolerance knobs of a TrialRunner campaign (the CLI flags). */
struct CampaignConfig
{
    /** Manifest journal path (--campaign); empty = no journaling. */
    std::string manifestPath;
    /** Manifest to resume from (--resume); empty = fresh campaign. */
    std::string resumePath;
    /** Experiment name stamped into the manifest header (provenance). */
    std::string experiment;
    /** Simulated-cycle budget per trial Session; 0 = no budget. */
    std::uint64_t trialTimeoutCycles = 0;
    /** Retry budget for censored trials and crashed shards. */
    unsigned retries = 0;
    /** Subprocess shard workers; 1 = run in-process. */
    unsigned shards = 1;

    bool journaling() const { return !manifestPath.empty(); }
};

/** Campaign identity, validated when a manifest is resumed. */
struct CampaignHeader
{
    std::string experiment;       //!< empty = not checked
    std::uint64_t masterSeed = 0;
    std::size_t specs = 0;
    unsigned reps = 0;
    /**
     * Digest of the spec labels in sweep order (campaignSpecDigest).
     * Job indices are spec_index * reps + rep, so resuming against a
     * permuted or edited spec list would silently splice journaled
     * results into the wrong rows — the digest turns that into a
     * fatal diagnostic. 0 = legacy manifest; not checked.
     */
    std::uint64_t specDigest = 0;
};

/**
 * FNV-1a digest of the spec labels in sweep order, for
 * CampaignHeader::specDigest. Order-sensitive by construction; never
 * returns 0 (0 is the legacy "not recorded" sentinel).
 */
std::uint64_t campaignSpecDigest(const std::vector<std::string> &labels);

/** One journaled trial: identity, fate, and its measurements. */
struct CampaignEntry
{
    std::size_t job = 0;          //!< spec_index * reps + rep
    std::uint64_t seed = 0;       //!< seed the recorded attempt ran with
    unsigned attempt = 0;         //!< 0 = first try
    bool censored = false;
    std::string censorReason;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::vector<double>>> series;
};

/** A parsed manifest: header plus entries keyed by job index. */
struct CampaignManifest
{
    CampaignHeader header;
    std::map<std::size_t, CampaignEntry> entries;
};

/** Serialize one entry as its manifest JSON line (no newline). */
std::string campaignEntryLine(const CampaignEntry &entry);

/** Serialize the manifest header line (no newline). */
std::string campaignHeaderLine(const CampaignHeader &header);

/**
 * Parse a manifest written by CampaignJournal. fatal() when the file
 * cannot be read or a line is structurally invalid (a manifest is
 * always renamed into place whole, so damage means the wrong file).
 * Duplicate jobs keep the last entry (a resumed shard re-journals its
 * inherited entries).
 */
CampaignManifest loadCampaignManifest(const std::string &path);

/**
 * fatal() unless `manifest` belongs to the campaign described by
 * `expected` (master seed, spec count, reps, and experiment name when
 * both sides carry one) — resuming from a foreign manifest would
 * silently splice wrong results.
 */
void requireCompatibleManifest(const CampaignManifest &manifest,
                               const CampaignHeader &expected,
                               const std::string &path);

/**
 * The append-only trial journal. Entries accumulate in memory;
 * every append() rewrites `<path>.tmp` and atomically renames it over
 * `<path>`, so the on-disk manifest is a complete prefix of the
 * campaign at every instant. Thread-safe: TrialRunner workers append
 * concurrently.
 */
class CampaignJournal
{
  public:
    CampaignJournal(std::string path, const CampaignHeader &header);

    /** Seed with an already-journaled entry (resume); no flush. */
    void absorb(const CampaignEntry &entry);
    /** Record a freshly completed trial and flush atomically. */
    void append(const CampaignEntry &entry);
    /** Write tmp + rename. fatal() when the filesystem refuses. */
    void flush();

  private:
    void flushLocked(); //!< mutex_ must be held

    std::mutex mutex_;
    std::string path_;
    std::string headerLine_;
    std::vector<std::string> lines_;
};

// --- shard process machinery (fork/reap, harness-side only) -------------

/**
 * Fork a shard worker running `body` and then _exit(0). Returns the
 * child pid; fatal() when fork fails. Must be called before the
 * calling process spawns worker threads (the children create their own
 * pools after the fork).
 */
int spawnShardWorker(const std::function<void()> &body);

/** How a shard worker left. */
struct ShardExit
{
    int pid = -1;
    bool crashed = false; //!< nonzero exit or terminated by signal
    int exitCode = 0;
    int termSignal = 0;   //!< 0 when not signal-terminated
};

/** Block until any shard worker exits; fatal() with no children. */
ShardExit waitAnyShardWorker();

/**
 * Exponential host-side backoff before relaunching a crashed shard
 * worker for the `attempt`-th time (1-based): 25 ms doubling per
 * attempt, capped at 2 s.
 */
void backoffBeforeRetry(unsigned attempt);

/**
 * CI crash injection: UNXPEC_CRASH_AFTER_TRIALS=N std::abort()s the
 * worker process after its N-th completed (journaled) trial of one
 * TrialRunner::run invocation — after the journal flush, so the
 * manifest proves checkpointing survives an abort at the worst
 * moment. Unset or 0 disables. The counter is per run() invocation,
 * so a relaunched shard that resumes (and therefore completes fewer
 * fresh trials) eventually finishes its range.
 */
class CrashInjector
{
  public:
    CrashInjector();          //!< reads the environment
    void onTrialComplete();   //!< count; abort at the threshold

  private:
    std::uint64_t threshold_ = 0;
    std::mutex mutex_;
    std::uint64_t completed_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_HARNESS_CAMPAIGN_HH
