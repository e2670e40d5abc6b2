/**
 * @file
 * Microarchitectural invariant auditor. Configure with
 * -DUNXPEC_AUDIT=ON to compile the periodic hooks into the Core loop;
 * the checks themselves are always built (tests exercise them in every
 * configuration) and each one cross-checks a fast-path structure
 * against a slow full-scan reference model:
 *
 *   ReorderBuffer::auditInvariants   slot sets (unissued/ready/
 *                                    outstanding/storeFences/pendingMem/
 *                                    unresolved branches) hold no bit
 *                                    for a dead slot and, walked oldest
 *                                    first, equal the seq lists of a
 *                                    full ROB scan element-for-element
 *                                    (memCount too), so issue and
 *                                    writeback candidate sets are
 *                                    provably identical to full scans.
 *   Cache::auditInvariants           SoA tag array mirrors the line
 *                                    array, every valid line sits in
 *                                    its index set, no set holds a
 *                                    duplicate tag, speculative marking
 *                                    is coherent, LRU stamps form a
 *                                    strict order, MSHR entries are
 *                                    consistent with fills in flight,
 *                                    and every set off the touched-set
 *                                    list is in constructed state.
 *   Cache::auditFresh                after each Core::reset: the whole
 *                                    cache equals freshly constructed
 *                                    state (tags, lines, LRU stamps and
 *                                    tick, MSHR file).
 *   MemoryHierarchy::auditInvariants all three caches.
 *   MemoryHierarchy::auditRollbackComplete
 *                                    CleanupSpec rollback completeness:
 *                                    immediately after a squash no
 *                                    cache line or MSHR entry may still
 *                                    carry a speculative marking from a
 *                                    squashed (younger-than-branch)
 *                                    installer — the undo left nothing
 *                                    behind (paper §II-B/T5).
 *
 * A violation throws AuditError with a cycle-stamped dump of the
 * offending structure. The audited run makes no Rng draws and mutates
 * no simulation state, so an UNXPEC_AUDIT=ON build produces
 * bit-identical experiment results to a default build.
 */

#ifndef UNXPEC_SIM_AUDIT_HH
#define UNXPEC_SIM_AUDIT_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

#ifndef UNXPEC_AUDIT_ENABLED
#define UNXPEC_AUDIT_ENABLED 0
#endif

namespace unxpec {

class Cache;

/** True when -DUNXPEC_AUDIT=ON compiled the Core-loop audit hooks in. */
inline constexpr bool kAuditEnabled = UNXPEC_AUDIT_ENABLED != 0;

/** A microarchitectural invariant was violated. */
class AuditError : public std::runtime_error
{
  public:
    explicit AuditError(const std::string &what_arg)
        : std::runtime_error(what_arg) {}
};

namespace audit {

/**
 * Cycles between periodic whole-machine audits in the Core run loop
 * (UNXPEC_AUDIT builds only). Set once before running; the post-squash
 * rollback audit always runs regardless of the period.
 */
Cycle period();
void setPeriod(Cycle cycles);

/** Throw AuditError with a `audit[component] @cycle N:` prefix. */
[[noreturn]] void fail(const char *component, Cycle now,
                       const std::string &message);

/** "name: [a, b, ...]" for failure dumps (seq lists, tags). */
std::string dumpList(const char *name,
                     const std::vector<std::uint64_t> &values);

/**
 * Number of Core-loop audit hooks running on this thread. The reference
 * scans build heap vectors and strings by design; the alloc gauge
 * (sim/alloc_gauge.hh) leaves allocations made while this is nonzero
 * uncounted, so a zero-alloc steady-state test measures the simulation
 * and not the auditor checking it.
 */
unsigned hookDepth();

/** Marks the extent of one audit hook call for hookDepth(). */
class HookScope
{
  public:
    HookScope();
    ~HookScope();
    HookScope(const HookScope &) = delete;
    HookScope &operator=(const HookScope &) = delete;
};

} // namespace audit

/**
 * Snapshot of a cache's resident tag set, for rollback-completeness
 * checks around a controlled speculation episode: capture before the
 * transient accesses, then verifyRestored after the squash to prove
 * the undo returned the tag state to the checkpoint (audit_test.cc).
 */
class CacheCheckpoint
{
  public:
    static CacheCheckpoint capture(const Cache &cache);

    /** Throws AuditError when the cache's resident set differs. */
    void verifyRestored(const Cache &cache, Cycle now) const;

  private:
    std::vector<Addr> resident_;
};

} // namespace unxpec

#endif // UNXPEC_SIM_AUDIT_HH
