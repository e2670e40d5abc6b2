/**
 * @file
 * Definitions for the invariant auditor (sim/audit.hh). The per-
 * subsystem auditInvariants() members are defined here, together,
 * rather than in their subsystems' .cc files: the audit is one
 * coherent reference model, and keeping every slow-path recomputation
 * side by side makes it easy to review that the checks really do
 * re-derive the fast-path structures from first principles.
 */

#include "sim/audit.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "cpu/core.hh"
#include "cpu/isa.hh"
#include "cpu/rob.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"

namespace unxpec {

namespace audit {

namespace {

Cycle g_period = 64;
thread_local unsigned g_hookDepth = 0;

} // namespace

unsigned
hookDepth()
{
    return g_hookDepth;
}

HookScope::HookScope()
{
    ++g_hookDepth;
}

HookScope::~HookScope()
{
    --g_hookDepth;
}

Cycle
period()
{
    return g_period;
}

void
setPeriod(Cycle cycles)
{
    g_period = cycles == 0 ? 1 : cycles;
}

void
fail(const char *component, Cycle now, const std::string &message)
{
    std::ostringstream out;
    out << "audit[" << component << "] @cycle " << now << ": " << message;
    throw AuditError(out.str());
}

std::string
dumpList(const char *name, const std::vector<std::uint64_t> &values)
{
    std::ostringstream out;
    out << name << "[" << values.size() << "] = {";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out << ", ";
        if (values[i] == kSeqNone)
            out << "none";
        else
            out << values[i];
    }
    out << "}";
    return out.str();
}

namespace {

/** Fail with both sides dumped when a slot set diverges from the
 *  full-scan reference. */
void
compareLists(const char *component, Cycle now, const char *name,
             const std::vector<SeqNum> &expect,
             const std::vector<SeqNum> &actual)
{
    if (expect == actual)
        return;
    fail(component, now,
         std::string(name) + " set diverged from full scan: " +
             dumpList("expected", expect) + " vs " +
             dumpList("actual", actual));
}

} // namespace

} // namespace audit

// --- ReorderBuffer ----------------------------------------------------

void
ReorderBuffer::auditInvariants(Cycle now) const
{
    const char *const who = "rob";

    if (count_ > capacity_ || headSlot_ >= capacity_)
        audit::fail(who, now, "ROB over capacity or head slot out of range");

    // Reference model: one full scan over the fat entries recomputes
    // every slot set, as an age-ordered seq list, from the entry flags
    // alone.
    std::vector<SeqNum> unissued;
    std::vector<SeqNum> ready_unissued;
    std::vector<SeqNum> outstanding;
    std::vector<SeqNum> store_fences;
    std::vector<SeqNum> pending_mem;
    std::vector<SeqNum> unresolved;
    unsigned mem_count = 0;

    for (std::size_t i = 0; i < count_; ++i) {
        const RobEntry &entry = at(i);
        if (entry.seq != headSeq_ + i) {
            audit::fail(who, now,
                        "non-consecutive seq at index " +
                            std::to_string(i) + ": expected " +
                            std::to_string(headSeq_ + i) + ", found " +
                            std::to_string(entry.seq));
        }
        if (entry.done && !entry.issued) {
            audit::fail(who, now,
                        "entry " + std::to_string(entry.seq) +
                            " done but never issued");
        }
        if (!entry.issued) {
            unissued.push_back(entry.seq);
            if (entry.srcReady[0] && entry.srcReady[1] &&
                entry.orderBlocker == kSeqNone) {
                ready_unissued.push_back(entry.seq);
            }
            // Eager-wakeup completeness: a waiting operand whose
            // producer is done (or gone) means markDone failed to
            // deliver the wakeup — the entry would stall forever.
            for (unsigned src = 0; src < 2; ++src) {
                if (entry.srcReady[src])
                    continue;
                const RobEntry *producer = find(entry.producer[src]);
                if (producer == nullptr || producer->done) {
                    audit::fail(who, now,
                                "entry " + std::to_string(entry.seq) +
                                    " missed the wakeup from producer " +
                                    std::to_string(entry.producer[src]));
                }
            }
            // Ordering-wakeup completeness: a parked entry waits on a
            // live, older, not-done blocker whose dependent row holds
            // its bit; otherwise no markDone will ever release it.
            if (entry.orderBlocker != kSeqNone) {
                const RobEntry *blocker = find(entry.orderBlocker);
                const bool registered =
                    blocker != nullptr &&
                    testSlot(depMask_, slotOf(*blocker) * maskWords_ * 64 +
                                           slotOf(entry));
                if (blocker == nullptr || blocker->done ||
                    blocker->seq >= entry.seq || !registered) {
                    audit::fail(who, now,
                                "entry " + std::to_string(entry.seq) +
                                    " missed the ordering wakeup from " +
                                    std::to_string(entry.orderBlocker));
                }
            }
        } else {
            if (entry.orderBlocker != kSeqNone) {
                audit::fail(who, now,
                            "entry " + std::to_string(entry.seq) +
                                " issued while parked on " +
                                std::to_string(entry.orderBlocker));
            }
            if (!entry.done)
                outstanding.push_back(entry.seq);
        }
        const Opcode op = entry.inst.op;
        if (isMem(op)) {
            ++mem_count;
            if (!entry.done)
                pending_mem.push_back(entry.seq);
        }
        if (isStore(op) || op == Opcode::FENCE)
            store_fences.push_back(entry.seq);
        if (isCondBranch(op) && !entry.done)
            unresolved.push_back(entry.seq);
    }

    // Every slot set must hold bits for live slots only, and, walked
    // oldest first as the pipeline loops walk it, list exactly the
    // reference seqs in the same order.
    auto check_set = [&](const char *name, const SlotSet &set,
                         const std::vector<SeqNum> &expect) {
        for (std::size_t slot = 0; slot < maskWords_ * 64; ++slot) {
            if (testSlot(set, slot) &&
                (slot >= capacity_ || offsetOf(slot) >= count_)) {
                audit::fail(who, now,
                            std::string(name) + " has a bit for dead slot " +
                                std::to_string(slot));
            }
        }
        std::vector<SeqNum> actual;
        walk(set, [&](std::size_t slot) {
            actual.push_back(slots_[slot].seq);
            return true;
        });
        audit::compareLists(who, now, name, expect, actual);
    };
    check_set("unissued", unissued_, unissued);
    check_set("readyUnissued", readyUnissued_, ready_unissued);
    check_set("outstanding", outstanding_, outstanding);
    check_set("storeFences", storeFences_, store_fences);
    check_set("pendingMem", pendingMem_, pending_mem);
    check_set("unresolvedBranches", unresolvedBranches_, unresolved);
    if (mem_count != memCount_) {
        audit::fail(who, now,
                    "memCount " + std::to_string(memCount_) +
                        " != full-scan count " + std::to_string(mem_count));
    }

    // Query cross-check: the oldest-member and youngest-blocker answers
    // must agree with the reference semantics for every in-flight seq.
    SeqNum youngest_not_done = kSeqNone;
    SeqNum youngest_pending = kSeqNone;
    SeqNum youngest_branch = kSeqNone;
    auto check_query = [&](const char *name, SeqNum seq, bool agrees) {
        if (!agrees) {
            audit::fail(who, now,
                        std::string(name) + "(" + std::to_string(seq) +
                            ") disagrees with full scan");
        }
    };
    for (const RobEntry &entry : *this) {
        const SeqNum seq = entry.seq;
        check_query("olderUnresolvedBranch", seq,
                    olderUnresolvedBranch(seq) ==
                        (youngest_branch != kSeqNone));
        check_query("olderPendingMem", seq,
                    olderPendingMem(seq) == (youngest_pending != kSeqNone));
        check_query("youngestNotDoneBefore", seq,
                    youngestNotDoneBefore(seq) == youngest_not_done);
        check_query("youngestPendingMemBefore", seq,
                    youngestPendingMemBefore(seq) == youngest_pending);
        check_query("youngestUnresolvedBranchBefore", seq,
                    youngestUnresolvedBranchBefore(seq) ==
                        youngest_branch);
        if (entry.done)
            continue;
        youngest_not_done = seq;
        if (isCondBranch(entry.inst.op))
            youngest_branch = seq;
        if (isMem(entry.inst.op))
            youngest_pending = seq;
    }
}

// --- Cache ------------------------------------------------------------

void
Cache::auditInvariants(Cycle now) const
{
    const std::string who_str = "cache:" + cfg_.name;
    const char *const who = who_str.c_str();

    // Row table: the k-th touched set owns row k + 1, and no other set
    // owns a row.
    std::size_t owners = 0;
    for (unsigned set = 0; set < numSets_; ++set)
        owners += rowOf_[set] != 0;
    if (owners != touchedSets_.size()) {
        audit::fail(who, now,
                    "row table gives " + std::to_string(owners) +
                        " sets a row, touched-set list names " +
                        std::to_string(touchedSets_.size()));
    }
    for (std::size_t k = 0; k < touchedSets_.size(); ++k) {
        const unsigned set = touchedSets_[k];
        if (set >= numSets_ || rowOf_[set] != k + 1) {
            audit::fail(who, now,
                        "row table and touched-set list disagree on set " +
                            std::to_string(set));
        }
    }

    // Row 0 stands in for every unwritten set and the rows past the
    // claimed ones are the next to claim: a reset skips them all, so
    // they must still be in constructed state.
    const std::size_t rows = static_cast<std::size_t>(numSets_) + 1;
    for (std::size_t row = 0; row < rows; ++row) {
        if (row != 0 && row <= touchedSets_.size())
            continue;
        for (unsigned way = 0; way < cfg_.ways; ++way) {
            const std::size_t idx = row * cfg_.ways + way;
            if (tags_[idx] != kEmptyTag || !(lines_[idx] == CacheLine{}) ||
                repl_.auditStamp(static_cast<unsigned>(row), way) != 0) {
                audit::fail(who, now,
                            "row " + std::to_string(row) +
                                " was written but no set on the "
                                "touched-set list owns it");
            }
        }
    }

    for (std::size_t k = 0; k < touchedSets_.size(); ++k) {
        const unsigned set = touchedSets_[k];
        const auto row = static_cast<unsigned>(k + 1);
        std::vector<Addr> seen;
        std::vector<std::uint64_t> stamps;
        for (unsigned way = 0; way < cfg_.ways; ++way) {
            const std::size_t idx =
                static_cast<std::size_t>(row) * cfg_.ways + way;
            const CacheLine &slot = lines_[idx];
            const std::string where = " at set " + std::to_string(set) +
                                      " way " + std::to_string(way);

            // SoA mirror: the tag array probe() scans must agree with
            // the line metadata it hands out pointers into.
            if (slot.valid != (tags_[idx] != kEmptyTag)) {
                audit::fail(who, now,
                            "tag array diverged from line metadata" +
                                where + ": tag key " +
                                std::to_string(tags_[idx]) +
                                (slot.valid ? ", line valid"
                                            : ", line invalid"));
            }
            if (!slot.valid) {
                if (slot.speculative) {
                    audit::fail(who, now,
                                "invalid line marked speculative" + where);
                }
                if (slot.pendingDowngrade) {
                    audit::fail(who, now,
                                "invalid line keeps a pending coherence "
                                "downgrade" +
                                    where);
                }
                continue;
            }

            // Placement: a resident line must live in the set its
            // address indexes to (modulo or CEASER alike).
            const Addr line_addr = ~tags_[idx];
            if (index_.set(line_addr) != set) {
                audit::fail(who, now,
                            "line " + std::to_string(line_addr) +
                                " resident in set " + std::to_string(set) +
                                " but indexes to set " +
                                std::to_string(index_.set(line_addr)));
            }
            // Uniqueness: a duplicate tag makes the second copy
            // unreachable to probe() — a ghost line.
            if (std::find(seen.begin(), seen.end(), line_addr) !=
                seen.end()) {
                audit::fail(who, now,
                            "duplicate tag " + std::to_string(line_addr) +
                                " in set " + std::to_string(set) + ": " +
                                audit::dumpList("resident", seen));
            }
            seen.push_back(line_addr);

            // Speculative marking coherence (what rollback keys on).
            if (slot.speculative && slot.installer == kSeqNone) {
                audit::fail(who, now,
                            "speculative line without installer" + where);
            }
            if (!slot.speculative && slot.installer != 0) {
                audit::fail(who, now,
                            "non-speculative line keeps installer " +
                                std::to_string(slot.installer) + where);
            }
            // A delayed M/E -> S downgrade is pinned to the speculative
            // episode that deferred it: commit applies it, squash
            // undoes it — either way the bit cannot outlive the
            // speculative marking (coherence engine contract).
            if (slot.pendingDowngrade && !slot.speculative) {
                audit::fail(who, now,
                            "non-speculative line keeps a pending "
                            "coherence downgrade" +
                                where);
            }
            if (slot.pendingDowngrade && slot.coh != CohState::Modified &&
                slot.coh != CohState::Exclusive) {
                audit::fail(who, now,
                            "pending downgrade on a line not in M/E" +
                                where);
            }

            if (repl_.policy() == ReplPolicy::LRU)
                stamps.push_back(repl_.auditStamp(row, way));
        }

        // LRU recency stack: every valid way was touched at least once
        // (stamp >= 1), no stamp outruns the global tick, and the
        // stamps are pairwise distinct — i.e. they define a strict
        // recency order (a permutation of the valid ways).
        for (const std::uint64_t stamp : stamps) {
            if (stamp == 0 || stamp > repl_.auditTick()) {
                audit::fail(who, now,
                            "LRU stamp out of range in set " +
                                std::to_string(set) + ": " +
                                audit::dumpList("stamps", stamps) +
                                ", tick " +
                                std::to_string(repl_.auditTick()));
            }
        }
        std::vector<std::uint64_t> sorted = stamps;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end()) {
            audit::fail(who, now,
                        "LRU stamps not a strict order in set " +
                            std::to_string(set) + ": " +
                            audit::dumpList("stamps", stamps));
        }
    }

    // --- MSHR file ----------------------------------------------------
    if (mshr_.inflight() > mshr_.capacity())
        audit::fail(who, now, "MSHR file over capacity");
    for (const MshrEntry &entry : mshr_.entries()) {
        if (entry.lineAddr == kAddrInvalid)
            audit::fail(who, now, "MSHR entry without a line address");
        if (entry.targets == 0) {
            audit::fail(who, now,
                        "MSHR entry for line " +
                            std::to_string(entry.lineAddr) +
                            " has zero targets");
        }
        if (entry.speculative && entry.installer == kSeqNone) {
            audit::fail(who, now,
                        "speculative MSHR entry without installer (line " +
                            std::to_string(entry.lineAddr) + ")");
        }
        if (entry.victimValid && entry.victimLine == kAddrInvalid) {
            audit::fail(who, now,
                        "MSHR entry claims a victim but records none "
                        "(line " +
                            std::to_string(entry.lineAddr) + ")");
        }
    }

    // Fills in flight: a resident line whose fill has not landed was
    // installed together with an MSHR allocation at the same ready
    // cycle. The entry may be legitimately absent (the file was full,
    // or this cache never allocates — the L1I), and stale entries for
    // earlier residencies of the same line may linger before lazy
    // release; but if any entry exists for the line, one of them must
    // carry exactly the in-flight fill's arrival cycle.
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
        const CacheLine &slot = lines_[idx];
        if (!slot.valid || slot.fillCycle <= now)
            continue;
        bool any = false;
        bool matched = false;
        const Addr line_addr = ~tags_[idx];
        for (const MshrEntry &entry : mshr_.entries()) {
            if (entry.lineAddr != line_addr)
                continue;
            any = true;
            if (entry.readyCycle == slot.fillCycle)
                matched = true;
        }
        if (any && !matched) {
            audit::fail(who, now,
                        "line " + std::to_string(line_addr) +
                            " filling at cycle " +
                            std::to_string(slot.fillCycle) +
                            " has MSHR entries but none matches its "
                            "arrival");
        }
    }
}

void
Cache::auditFresh(Cycle now) const
{
    const std::string who_str = "reset:" + cfg_.name;
    const char *const who = who_str.c_str();

    const std::size_t rows = static_cast<std::size_t>(numSets_) + 1;
    for (std::size_t row = 0; row < rows; ++row) {
        for (unsigned way = 0; way < cfg_.ways; ++way) {
            const std::size_t idx = row * cfg_.ways + way;
            const std::string where = " at row " + std::to_string(row) +
                                      " way " + std::to_string(way);
            if (tags_[idx] != kEmptyTag)
                audit::fail(who, now, "tag survived the reset" + where);
            if (!(lines_[idx] == CacheLine{}))
                audit::fail(who, now, "line survived the reset" + where);
            if (repl_.auditStamp(static_cast<unsigned>(row), way) != 0)
                audit::fail(who, now, "LRU stamp survived the reset" + where);
        }
    }
    if (repl_.auditTick() != 0)
        audit::fail(who, now, "LRU tick survived the reset");
    if (mshr_.inflight() != 0)
        audit::fail(who, now, "MSHR entries survived the reset");
    if (!touchedSets_.empty() ||
        std::any_of(rowOf_.begin(), rowOf_.end(),
                    [](std::uint32_t row) { return row != 0; })) {
        audit::fail(who, now, "touched-set list survived the reset");
    }
}

// --- MemoryHierarchy --------------------------------------------------

void
MemoryHierarchy::auditFresh(Cycle now) const
{
    l1i_.auditFresh(now);
    l1d_.auditFresh(now);
    if (ownsShared())
        l2_->auditFresh(now);
}

void
MemoryHierarchy::auditInvariants(Cycle now) const
{
    l1i_.auditInvariants(now);
    l1d_.auditInvariants(now);
    if (ownsShared())
        l2_->auditInvariants(now);
    // The machine-wide invariants (single owner, inclusion, no stale
    // pending downgrades) span every core; auditing them from the
    // shared-level owner keeps the periodic Core-loop hook from
    // re-scanning the machine once per core.
    if (coh_ != nullptr && ownsShared())
        coh_->auditInvariants(now);
}

void
MemoryHierarchy::auditRollbackComplete(SeqNum branch_seq, Cycle now) const
{
    const char *const who = "rollback";

    // CleanupSpec completeness (§II-B, T5): the squash removed every
    // ROB entry younger than the branch, and the rollback must have
    // removed (or, on the unsafe baseline, at least unmarked) every
    // speculative footprint those entries installed. Any surviving
    // speculative marking from a squashed installer is leftover
    // transient state the undo missed.
    auto check_cache = [&](const Cache &cache) {
        for (std::size_t idx = 0; idx < cache.lines_.size(); ++idx) {
            const CacheLine &slot = cache.lines_[idx];
            if (slot.valid && slot.speculative &&
                slot.installer != kSeqNone && slot.installer > branch_seq) {
                audit::fail(
                    who, now,
                    "cache " + cache.config().name + ": line " +
                        std::to_string(~cache.tags_[idx]) +
                        " still speculative for squashed installer " +
                        std::to_string(slot.installer) +
                        " (squashed everything younger than " +
                        std::to_string(branch_seq) + ")");
            }
        }
    };
    check_cache(l1d_);
    if (ownsShared())
        check_cache(*l2_);

    // The unsafe baseline performs no MSHR scrub by design; every real
    // scheme must have purged squashed installers' entries (T3).
    if (cfg_.cleanupMode == CleanupMode::UnsafeBaseline)
        return;
    auto check_mshr = [&](const Cache &cache) {
        for (const MshrEntry &entry : cache.mshr().entries()) {
            if (entry.speculative && entry.installer != kSeqNone &&
                entry.installer > branch_seq) {
                audit::fail(
                    who, now,
                    "cache " + cache.config().name + ": MSHR entry for "
                        "line " +
                        std::to_string(entry.lineAddr) +
                        " still tracks squashed installer " +
                        std::to_string(entry.installer));
            }
        }
    };
    check_mshr(l1d_);
    if (ownsShared())
        check_mshr(*l2_);
}

// --- Core -------------------------------------------------------------

void
Core::auditInvariants() const
{
    rob_.auditInvariants(now_);
    hier_.auditInvariants(now_);
    // LSQ occupancy model: dispatch back-pressures on this bound.
    if (LoadStoreQueue::occupancy(rob_) > lsq_.capacity()) {
        audit::fail("lsq", now_,
                    "occupancy " +
                        std::to_string(LoadStoreQueue::occupancy(rob_)) +
                        " exceeds capacity " +
                        std::to_string(lsq_.capacity()));
    }
}

// --- CacheCheckpoint --------------------------------------------------

CacheCheckpoint
CacheCheckpoint::capture(const Cache &cache)
{
    CacheCheckpoint checkpoint;
    checkpoint.resident_ = cache.residentLines();
    return checkpoint;
}

void
CacheCheckpoint::verifyRestored(const Cache &cache, Cycle now) const
{
    const std::vector<Addr> current = cache.residentLines();
    if (current == resident_)
        return;

    // Both sides are sorted: set-difference each way for the dump.
    std::vector<Addr> appeared;
    std::set_difference(current.begin(), current.end(), resident_.begin(),
                        resident_.end(), std::back_inserter(appeared));
    std::vector<Addr> vanished;
    std::set_difference(resident_.begin(), resident_.end(), current.begin(),
                        current.end(), std::back_inserter(vanished));
    audit::fail(("checkpoint:" + cache.config().name).c_str(), now,
                "resident set differs from checkpoint: " +
                    audit::dumpList("appeared", appeared) + ", " +
                    audit::dumpList("vanished", vanished));
}

} // namespace unxpec
