#include "cpu/core.hh"

#include <algorithm>

#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

Core::Core(const SystemConfig &cfg, MemoryHierarchy *shared)
    : cfg_((cfg.validate(), cfg)),
      rng_(cfg.seed),
      hier_(cfg, rng_, shared),
      cleanup_(cfg.cleanupMode, cfg.cleanupTiming, rng_),
      lsq_(cfg.core.lsqEntries),
      stats_("cpu"),
      simTicks_(stats_.counter("sim_ticks", "total simulated cycles")),
      committedInstrs_(stats_.counter("committedInsts",
                                      "instructions committed")),
      branches_(stats_.counter("branches", "conditional branches resolved")),
      mispredicts_(stats_.counter("mispredicts", "branches mispredicted")),
      loads_(stats_.counter("loads", "loads executed")),
      stores_(stats_.counter("stores", "stores committed")),
      skippedCycles_(stats_.counter(
          "skippedCycles", "idle cycles fast-forwarded by run()")),
      orderParks_(stats_.counter(
          "orderParks", "entries parked on an older blocker by issue")),
      rob_(cfg.core.robEntries),
      decodeQueue_(static_cast<std::size_t>(cfg.core.fetchWidth) *
                   (cfg.core.decodeDepth + 2))
{
    rat_.fill(kSeqNone);
    // Squash scratch is bounded by ROB capacity; sizing it here keeps
    // the misprediction path allocation-free from the first squash.
    // lint-ok(steady-alloc): one-time construction sizing
    squashRecords_.reserve(cfg.core.robEntries);
}

void
Core::reset(std::uint64_t seed)
{
    cfg_.seed = seed;
    rng_.seed(seed);
    hier_.reseed(seed);
    predictor_.reset();
    cleanup_.reset();
    stats_.resetAll();

    program_ = nullptr;
    regs_.fill(0);
    rat_.fill(kSeqNone);
    rob_.clear();
    decodeQueue_.clear();
    fetchPC_ = 0;
    fetchStopped_ = false;
    fetchResumeCycle_ = 0;
    stallUntil_ = 0;
    commitStallUntil_ = 0;
    mulBusyUntil_ = 0;
    halted_ = false;
    nextSeq_ = 0;
    committed_ = 0;
    now_ = 0;
    runStart_ = 0;

    interruptProb_ = 0.0;
    interruptMin_ = 0;
    interruptMax_ = 0;
    limitTripped_ = false;
    trace_ = nullptr;
    setEventTrace(nullptr);

    // Reset-completeness audit: every cache this core resets must be
    // indistinguishable from a freshly constructed one, although the
    // reset only cleared the sets written since the last one.
    if constexpr (kAuditEnabled) {
        const audit::HookScope scope;
        hier_.auditFresh(now_);
    }
}

void
Core::setEventTrace(Tracer *tracer)
{
    eventTrace_ = tracer;
    if (tracer != nullptr)
        tracer->setNow(now_);
    rob_.setTracer(tracer);
    hier_.setTracer(tracer);
    cleanup_.setTracer(tracer);
}

void
Core::setInterruptNoise(double per_cycle_probability, unsigned min_stall,
                        unsigned max_stall)
{
    interruptProb_ = per_cycle_probability;
    interruptMin_ = min_stall;
    interruptMax_ = std::max(min_stall, max_stall);
}

RunResult
Core::run(const Program &program, const RunOptions &options)
{
    runBegin(program, options);
    while (runStep())
        skipIdle();
    return runFinish();
}

void
Core::runBegin(const Program &program, const RunOptions &options)
{
    program_ = &program;
    runOptions_ = options;
    if (options.loadData)
        program.loadInitialData(hier_.mem());

    rob_.clear();
    decodeQueue_.clear();
    rat_.fill(kSeqNone);
    regs_.fill(0);
    fetchPC_ = 0;
    fetchStopped_ = program.size() == 0;
    halted_ = false;
    committed_ = 0;
    runStart_ = now_;
    stallUntil_ = now_;
    commitStallUntil_ = now_;
    fetchResumeCycle_ = now_;

    runResult_ = RunResult{};
}

bool
Core::runStep()
{
    // Loop-head conditions of the historical run() loop, in order.
    if (halted_ || committed_ >= runOptions_.maxInstructions)
        return false;
    if (now_ - runStart_ >= runOptions_.maxCycles) {
        runResult_.cycleLimitReached = true;
        limitTripped_ = true;
        warn("Core::run: cycle budget exhausted after ",
             runOptions_.maxCycles, " cycles with only ", committed_,
             " of ", runOptions_.maxInstructions,
             " instructions committed (no HALT reached); "
             "returning a partial RunResult — raise "
             "RunOptions::maxCycles if the program legitimately "
             "runs this long");
        return false;
    }
    ++now_;
    ++simTicks_;
    if (eventTrace_ != nullptr)
        eventTrace_->setNow(now_);

    // External noise: other honest programs occasionally steal the
    // core (interrupts, scheduler ticks).
    if (interruptProb_ > 0.0 && rng_.chance(interruptProb_)) {
        const unsigned span = interruptMax_ - interruptMin_ + 1;
        stallUntil_ = std::max(
            stallUntil_, now_ + interruptMin_ + rng_.range(span));
    }

    // Cleanup (or noise) stall freezes every stage.
    if (now_ < stallUntil_)
        return true;

    tickWriteback();
    tickCommit();
    if (halted_ || committed_ >= runOptions_.maxInstructions)
        return false;
    tickIssue();
    tickDispatch();
    tickFetch(*program_);

    // Periodic invariant audit: compiled in only with
    // -DUNXPEC_AUDIT=ON, where it cross-checks every fast-path
    // structure against its slow reference model.
    if constexpr (kAuditEnabled) {
        if (now_ % audit::period() == 0) {
            const audit::HookScope scope;
            auditInvariants();
        }
    }

    // Run-off detection: nothing in flight and nothing to fetch.
    if (rob_.empty() && decodeQueue_.empty() && fetchStopped_)
        return false;

    if (runOptions_.warmupInstructions > 0 &&
        runResult_.warmupCycles == 0 &&
        committed_ >= runOptions_.warmupInstructions) {
        runResult_.warmupCycles = now_ - runStart_;
    }
    return true;
}

RunResult
Core::runFinish()
{
    if (runOptions_.warmupInstructions > 0 && runResult_.warmupCycles == 0)
        runResult_.warmupCycles = now_ - runStart_;

    runResult_.cycles = now_ - runStart_;
    runResult_.instructions = committed_;
    runResult_.halted = halted_;
    runResult_.regs = regs_;
    program_ = nullptr;
    return runResult_;
}

void
Core::skipIdle()
{
    const Cycle next = now_ + 1;

    // The earliest cycle at which a stage could act if nothing stalled
    // the core (kCycleNever when none could: only the cycle limit ends
    // such a run). Ready entries include the waits tickIssue re-checks
    // every cycle (rob.hh). A full ROB or LSQ holds dispatch, and a
    // full decode queue holds fetch, until a commit frees room; the
    // commit, in turn, waits on the completions walked below.
    Cycle wake = kCycleNever;
    if (rob_.anyReadyUnissued())
        wake = next;
    if (!rob_.empty() && rob_.front().done)
        wake = std::min(wake, commitStallUntil_);
    if (!decodeQueue_.empty() && !rob_.full()) {
        const FetchedInst &front = decodeQueue_.front();
        if (!isMem(program_->at(front.pc).op) ||
            LoadStoreQueue::occupancy(rob_) < lsq_.capacity())
            wake = std::min(wake, front.availCycle);
    }
    if (!fetchStopped_ && !decodeQueue_.full())
        wake = std::min(wake, fetchResumeCycle_);
    // A cleanup or noise stall freezes every stage until stallUntil_.
    const Cycle floor = std::max(next, stallUntil_);
    if (wake > floor) {
        rob_.forEachOutstanding([&](const RobEntry &entry) {
            wake = std::min(wake, entry.readyCycle);
            return wake > floor;
        });
    }

    // Skip up to `last`, so that the next runStep runs the first cycle
    // that may act. runStep trips the cycle limit once now_ - runStart_
    // reaches RunOptions::maxCycles, so the skip stops there; in audit
    // builds it also stops before the next periodic audit.
    Cycle cap = now_ + (runOptions_.maxCycles - (now_ - runStart_));
    if (cap < now_)
        cap = kCycleNever; // no limit within the clock's range
    if constexpr (kAuditEnabled) {
        const Cycle period = audit::period();
        cap = std::min(cap, (now_ / period + 1) * period - 1);
    }
    Cycle last = std::min(std::max(wake, floor) - 1, cap);
    if (last <= now_)
        return;

    // Draw the interrupt noise of every skipped cycle, as runStep would;
    // a hit that stalls past `last` moves the first active cycle out.
    if (interruptProb_ > 0.0) {
        const unsigned span = interruptMax_ - interruptMin_ + 1;
        for (Cycle cycle = next; cycle <= last; ++cycle) {
            if (!rng_.chance(interruptProb_))
                continue;
            stallUntil_ = std::max(
                stallUntil_, cycle + interruptMin_ + rng_.range(span));
            last = std::min(std::max(wake, stallUntil_) - 1, cap);
        }
    }

    simTicks_ += last - now_;
    skippedCycles_ += last - now_;
    now_ = last;
    if (eventTrace_ != nullptr)
        eventTrace_->setNow(now_);
}

void
Core::executeEntry(RobEntry &entry)
{
    const auto s0 = entry.srcValue[0];
    const auto s1 = entry.srcValue[1];
    const auto imm = static_cast<std::uint64_t>(entry.inst.imm);

    switch (entry.inst.op) {
      case Opcode::LI:   entry.result = imm; break;
      case Opcode::MOV:  entry.result = s0; break;
      case Opcode::ADD:  entry.result = s0 + s1; break;
      case Opcode::ADDI: entry.result = s0 + imm; break;
      case Opcode::SUB:  entry.result = s0 - s1; break;
      case Opcode::MUL:  entry.result = s0 * s1; break;
      case Opcode::AND:  entry.result = s0 & s1; break;
      case Opcode::OR:   entry.result = s0 | s1; break;
      case Opcode::XOR:  entry.result = s0 ^ s1; break;
      case Opcode::SHL:  entry.result = s0 << (imm & 63); break;
      case Opcode::SHR:  entry.result = s0 >> (imm & 63); break;
      case Opcode::BLT:
        entry.resolvedTaken =
            static_cast<std::int64_t>(s0) < static_cast<std::int64_t>(s1);
        break;
      case Opcode::BGE:
        entry.resolvedTaken =
            static_cast<std::int64_t>(s0) >= static_cast<std::int64_t>(s1);
        break;
      case Opcode::BEQ:  entry.resolvedTaken = s0 == s1; break;
      case Opcode::BNE:  entry.resolvedTaken = s0 != s1; break;
      default:
        break;
    }
}

void
Core::tickIssue()
{
    // Walk the ready unissued set oldest first (the same relative order
    // as the historical full-window scan). Entries whose operands are
    // not ready, or that are parked behind an older not-done entry,
    // could not issue, so leaving them out of the set changes no
    // decision; the ROB's eager wakeup puts them back at the markDone
    // that unblocks them (rob.hh).
    unsigned issued = 0;
    rob_.forEachReadyUnissued([&](RobEntry &entry) {
        if (issued >= cfg_.core.issueWidth)
            return false;
        if (tryIssue(entry))
            ++issued;
        return true;
    });
}

bool
Core::tryIssue(RobEntry &entry)
{
    // An entry found blocked here is parked on its blocker; the two
    // waits that end on a time or a commit, not on a markDone, leave
    // it in the ready set to be re-checked next cycle.
    const Opcode op = entry.inst.op;

    if (op == Opcode::LOAD) {
        const Addr addr =
            entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
        const auto gate = LoadStoreQueue::gateLoad(
            rob_, entry.seq, addr, entry.inst.size);
        if (gate.gate == LoadGate::Blocked) {
            // A partial overlap (no blocker) waits for the store to
            // commit.
            if (gate.blocker != kSeqNone)
                park(entry, gate.blocker);
            return false;
        }
        const bool speculative =
            gate.gate == LoadGate::Proceed &&
            rob_.olderUnresolvedBranch(entry.seq);
        if (speculative &&
            cfg_.cleanupMode == CleanupMode::DelayOnMiss &&
            !hier_.l1d().present(lineAlign(addr), now_)) {
            // Delay-on-miss: a speculative L1 miss simply waits
            // until the speculation resolves; L1 hits are served
            // (they change no cache state).
            return false;
        }
        entry.effAddr = addr;
        rob_.markIssued(entry);
        ++loads_;
        if (gate.gate == LoadGate::Forward) {
            entry.result = gate.forwardValue;
            entry.readyCycle = now_ + 1;
            return true;
        }
        if (speculative && cfg_.cleanupMode == CleanupMode::InvisiSpec) {
            // Invisible scheme: serve from the shadow buffer; no cache
            // state changes until commit.
            entry.memRecord = hier_.accessInvisible(addr, now_, entry.seq);
        } else if (speculative &&
                   cfg_.cleanupMode == CleanupMode::SafeSpec) {
            // Shadow L1: the fill lands next to the caches, not in
            // them; promoted at commit, discarded on squash.
            entry.memRecord = hier_.accessSafeSpec(addr, now_, entry.seq);
        } else if (speculative &&
                   cfg_.cleanupMode == CleanupMode::CacheSquash) {
            // The fill parks in a cancellable MSHR entry; squash
            // propagates into the MSHR and cancels it.
            entry.memRecord =
                hier_.accessCacheSquash(addr, now_, entry.seq);
        } else {
            entry.memRecord =
                hier_.access(addr, now_, false, speculative, entry.seq);
        }
        entry.hasMemRecord = true;
        entry.readyCycle = entry.memRecord.ready;
        entry.result = hier_.mem().read(addr, entry.inst.size);
        return true;
    }

    if (op == Opcode::STORE) {
        entry.effAddr =
            entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
        entry.storeValue = entry.srcValue[1];
        rob_.markIssued(entry);
        entry.readyCycle = now_ + 1;
        return true;
    }

    if (op == Opcode::CLFLUSH) {
        // clflush is ordered: it only executes non-speculatively,
        // after all older memory operations have completed. It waits
        // on the youngest blocker of each kind (rob.hh).
        if (rob_.olderUnresolvedBranch(entry.seq)) {
            park(entry, rob_.youngestUnresolvedBranchBefore(entry.seq));
            return false;
        }
        if (!LoadStoreQueue::fenceReady(rob_, entry.seq)) {
            park(entry, rob_.youngestPendingMemBefore(entry.seq));
            return false;
        }
        const Addr addr =
            entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
        entry.effAddr = addr;
        hier_.flushLine(addr);
        rob_.markIssued(entry);
        entry.readyCycle = now_ + cfg_.core.clflushLatency;
        return true;
    }

    if (op == Opcode::FENCE) {
        if (!LoadStoreQueue::fenceReady(rob_, entry.seq)) {
            park(entry, rob_.youngestPendingMemBefore(entry.seq));
            return false;
        }
        rob_.markIssued(entry);
        entry.readyCycle = now_ + 1;
        return true;
    }

    if (op == Opcode::RDTSCP) {
        // Serializing: waits for every older instruction, parked on
        // the youngest older one that is not done (rob.hh).
        if (const SeqNum blocker = rob_.youngestNotDoneBefore(entry.seq);
            blocker != kSeqNone) {
            park(entry, blocker);
            return false;
        }
        entry.result = now_;
        rob_.markIssued(entry);
        entry.readyCycle = now_ + 1;
        return true;
    }

    // ALU ops and conditional branches.
    executeEntry(entry);
    rob_.markIssued(entry);
    const unsigned latency = op == Opcode::MUL
        ? cfg_.core.mulLatency : cfg_.core.intAluLatency;
    if (op == Opcode::MUL && !cfg_.core.mulPipelined) {
        // Non-pipelined multiplier: one op occupies the unit end to
        // end. The busy window deliberately survives squashes —
        // transient MULs keep the FU busy past their own squash,
        // which is the SpectreRewind contention channel the
        // contention receiver measures.
        const Cycle start = std::max(now_, mulBusyUntil_);
        entry.readyCycle = start + latency;
        mulBusyUntil_ = entry.readyCycle;
    } else {
        entry.readyCycle = now_ + latency;
    }
    return true;
}

void
Core::park(RobEntry &entry, SeqNum blocker)
{
    ++orderParks_;
    rob_.park(entry, blocker);
}

void
Core::tickWriteback()
{
    // Walk the issued-but-not-done set oldest first (the order of a
    // full ROB scan).
    rob_.forEachOutstanding([&](RobEntry &entry) {
        if (entry.readyCycle > now_)
            return true;
        rob_.markDone(entry);
        if (isCondBranch(entry.inst.op)) {
            resolveBranch(entry);
            // A mispredict squashed every younger entry: nothing is
            // left to complete this cycle.
            return !entry.mispredicted;
        }
        return true;
    });
}

void
Core::resolveBranch(RobEntry &branch)
{
    ++branches_;
    branch.actualNextPc = branch.resolvedTaken
        ? static_cast<std::size_t>(branch.inst.target)
        : branch.pc + 1;
    predictor_.update(branch.pc, branch.resolvedTaken);

    const bool mispredicted =
        branch.resolvedTaken != branch.predictedTaken;
    if (eventTrace_ != nullptr && eventTrace_->enabled(kTraceCatBranch)) {
        std::uint16_t flags = 0;
        if (branch.resolvedTaken)
            flags |= kTraceFlagTaken;
        if (mispredicted)
            flags |= kTraceFlagMispredict;
        eventTrace_->instant(TraceKind::BranchResolve, branch.seq,
                             kAddrInvalid, branch.pc, 0, flags);
    }
    if (!mispredicted)
        return;

    ++mispredicts_;
    branch.mispredicted = true;
    squashAfter(branch);
}

void
Core::squashAfter(RobEntry &branch)
{
    const auto squashed = rob_.squashYoungerThan(branch.seq);

    // Scratch buffers reserved to ROB capacity at construction: the
    // squash path reuses them so a warm core never allocates here.
    squashRecords_.clear();
    for (const auto &entry : squashed) {
        if (isLoad(entry.inst.op) && entry.hasMemRecord)
            // lint-ok(steady-alloc): reserved
            squashRecords_.push_back(entry.memRecord);
    }

    SpecTracker::buildJobInto(now_, squashRecords_, squashJob_);
    const Cycle older_drain =
        LoadStoreQueue::olderLoadsDrainCycle(rob_, branch.seq);
    const Cycle cleanup_until =
        cleanup_.rollback(hier_, squashJob_, older_drain);
    stallUntil_ = std::max(stallUntil_, cleanup_until);

    // Rollback-completeness audit: right after the undo, no squashed
    // installer may still mark any cache line or MSHR entry.
    if constexpr (kAuditEnabled) {
        const audit::HookScope scope;
        hier_.auditRollbackComplete(branch.seq, now_);
    }

    decodeQueue_.clear();
    fetchPC_ = branch.actualNextPc;
    fetchStopped_ = fetchPC_ >= program_->size();
    // The front end restarts only after the rollback finishes: the
    // core is stalled for the cleanup, then pays the redirect bubble.
    fetchResumeCycle_ =
        std::max(now_, stallUntil_) + cfg_.core.branchRedirectPenalty;
    // Sequence numbers restart right after the branch so ROB lookup
    // stays O(1) on consecutive numbering.
    nextSeq_ = branch.seq + 1;
    rebuildRat();
}

void
Core::rebuildRat()
{
    rat_.fill(kSeqNone);
    for (const auto &entry : rob_) {
        if (writesReg(entry.inst.op))
            rat_[entry.inst.rd] = entry.seq;
    }
}

void
Core::tickCommit()
{
    if (now_ < commitStallUntil_)
        return;
    unsigned committed_now = 0;
    while (committed_now < cfg_.core.commitWidth && !rob_.empty()) {
        RobEntry &head = rob_.front();
        if (!head.done)
            break;

        if (head.hasMemRecord && head.memRecord.invisible) {
            // InvisiSpec expose/validate: the buffered load becomes
            // architectural. A load that hit during speculation only
            // needs exposure; one that missed must validate with a
            // real access, and commit waits for it — the "two reads
            // per speculative load" cost the paper's intro cites.
            const MemAccessRecord expose = hier_.access(
                head.effAddr, now_, false, false, head.seq);
            head.memRecord.invisible = false;
            head.hasMemRecord = false;
            if (!head.memRecord.l1Hit) {
                commitStallUntil_ = expose.ready;
                if (now_ < commitStallUntil_)
                    return;
            }
        }

        if (head.inst.op == Opcode::HALT) {
            halted_ = true;
            ++committed_;
            ++committedInstrs_;
            rob_.popFront();
            break;
        }

        if (isStore(head.inst.op)) {
            commitStore(head);
        } else if (isLoad(head.inst.op) && head.hasMemRecord) {
            if (head.memRecord.shadow) {
                // SafeSpec promotion is free: the data is on chip, so
                // unlike InvisiSpec there is no validate stall.
                hier_.commitShadow(head.memRecord, now_);
            } else if (head.memRecord.mshrOnly) {
                hier_.commitPendingFill(head.memRecord, now_);
            } else {
                hier_.commitInstall(head.memRecord);
            }
        }

        if (writesReg(head.inst.op)) {
            regs_[head.inst.rd] = head.result;
            if (rat_[head.inst.rd] == head.seq)
                rat_[head.inst.rd] = kSeqNone;
        }

        if (trace_ != nullptr) {
            *trace_ << now_ << " " << head.seq << " " << head.pc << ": "
                    << disassemble(head.inst);
            if (writesReg(head.inst.op))
                *trace_ << " = " << head.result;
            *trace_ << "\n";
        }

        ++committed_;
        ++committedInstrs_;
        ++committed_now;
        rob_.popFront();
    }
}

void
Core::commitStore(RobEntry &entry)
{
    ++stores_;
    hier_.mem().write(entry.effAddr, entry.storeValue, entry.inst.size);
    // Write-allocate fill at commit; latency hidden by the store
    // buffer, so the result timing is ignored.
    hier_.access(entry.effAddr, now_, true, false, entry.seq);
}

void
Core::tickDispatch()
{
    unsigned dispatched = 0;
    while (dispatched < cfg_.core.fetchWidth && !decodeQueue_.empty() &&
           !rob_.full()) {
        const FetchedInst &fetched = decodeQueue_.front();
        if (fetched.availCycle > now_)
            break;
        const Instruction &inst = program_->at(fetched.pc);
        if (isMem(inst.op) &&
            LoadStoreQueue::occupancy(rob_) >= lsq_.capacity()) {
            break;
        }

        // In-place dispatch: fill the entry in its ROB slot, then
        // admit it (rob.hh).
        RobEntry &entry = rob_.claim(nextSeq_++);
        entry.pc = fetched.pc;
        entry.inst = inst;
        entry.predictedTaken = fetched.predictedTaken;

        const Opcode op = inst.op;
        const RegIndex sources[2] = {inst.rs1, inst.rs2};
        const bool reads[2] = {readsRs1(op), readsRs2(op)};
        for (unsigned slot = 0; slot < 2; ++slot) {
            if (!reads[slot])
                continue;
            const SeqNum producer = rat_[sources[slot]];
            const RobEntry *prod =
                producer == kSeqNone ? nullptr : rob_.find(producer);
            if (prod == nullptr) {
                // No producer, or the producer already committed (its
                // value is architectural: no younger writer of this
                // register can have committed before this entry).
                entry.srcValue[slot] = regs_[sources[slot]];
            } else if (prod->done) {
                entry.srcValue[slot] = prod->result;
            } else {
                // Pending producer: ReorderBuffer::admit registers this
                // entry for an eager wakeup at the producer's markDone.
                entry.producer[slot] = producer;
                entry.srcReady[slot] = false;
            }
        }

        if (writesReg(op))
            rat_[inst.rd] = entry.seq;

        // Instructions with no work complete at dispatch.
        if (op == Opcode::NOP || op == Opcode::HALT || op == Opcode::JMP) {
            entry.issued = true;
            entry.done = true;
            entry.readyCycle = now_;
            if (op == Opcode::JMP) {
                entry.resolvedTaken = true;
                entry.actualNextPc = static_cast<std::size_t>(inst.target);
            }
        }

        rob_.admit();
        decodeQueue_.pop_front();
        ++dispatched;
    }
}

void
Core::tickFetch(const Program &program)
{
    if (fetchStopped_ || now_ < fetchResumeCycle_)
        return;

    unsigned fetched = 0;
    while (fetched < cfg_.core.fetchWidth && !decodeQueue_.full()) {
        if (fetchPC_ >= program.size()) {
            fetchStopped_ = true;
            break;
        }
        const Instruction &inst = program.at(fetchPC_);

        const Cycle icache_ready =
            hier_.fetchReady(Program::pcToAddr(fetchPC_), now_);
        const Cycle avail =
            std::max(icache_ready, now_ + cfg_.l1i.hitLatency) +
            cfg_.core.decodeDepth;

        FetchedInst fetched_inst;
        fetched_inst.pc = fetchPC_;
        fetched_inst.availCycle = avail;

        if (eventTrace_ != nullptr && eventTrace_->enabled(kTraceCatCpu)) {
            eventTrace_->instant(TraceKind::Fetch, kSeqNone, kAddrInvalid,
                                 fetched_inst.pc);
        }

        if (isCondBranch(inst.op)) {
            fetched_inst.predictedTaken =
                predictor_.predict(fetchPC_);
            fetchPC_ = fetched_inst.predictedTaken
                ? static_cast<std::size_t>(inst.target) : fetchPC_ + 1;
        } else if (inst.op == Opcode::JMP) {
            fetched_inst.predictedTaken = true;
            fetchPC_ = static_cast<std::size_t>(inst.target);
        } else if (inst.op == Opcode::HALT) {
            fetchPC_ = fetchPC_ + 1;
            decodeQueue_.push_back(fetched_inst); // lint-ok(steady-alloc): ring
            fetchStopped_ = true;
            break;
        } else {
            fetchPC_ = fetchPC_ + 1;
        }

        decodeQueue_.push_back(fetched_inst); // lint-ok(steady-alloc): ring
        ++fetched;
    }
}

} // namespace unxpec
