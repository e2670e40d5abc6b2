#include "cpu/core.hh"

#include <algorithm>

#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

Core::Core(const SystemConfig &cfg)
    : cfg_((cfg.validate(), cfg)),
      rng_(cfg.seed),
      hier_(cfg, rng_, &arena_),
      predictor_(cfg.core.predictor == PredictorKind::Gshare
                     ? std::unique_ptr<BranchPredictor>(
                           // lint-ok(steady-alloc): one-time ctor
                           std::make_unique<GsharePredictor>())
                     // lint-ok(steady-alloc): one-time ctor
                     : std::make_unique<BimodalPredictor>()),
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
      rob_(cfg.core.robEntries, &arena_),
      decodeQueue_(static_cast<std::size_t>(cfg.core.fetchWidth) *
                       (cfg.core.decodeDepth + 2),
                   &arena_)
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
    predictor_->reset();
    cleanup_.reset(cfg_.cleanupMode, cfg_.cleanupTiming);
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
    runActive_ = false;
    runStart_ = 0;

    interruptProb_ = 0.0;
    interruptMin_ = 0;
    interruptMax_ = 0;
    budgetSet_ = false;
    budgetRemaining_ = 0;
    budgetWarned_ = false;
    limitTripped_ = false;
    trace_ = nullptr;
    setEventTrace(nullptr);
}

void
Core::setCycleBudget(std::uint64_t cycles)
{
    budgetSet_ = cycles > 0;
    budgetRemaining_ = cycles;
    budgetWarned_ = false;
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
    while (runStep()) {
    }
    return runFinish();
}

void
Core::runBegin(const Program &program, const RunOptions &options)
{
    program_ = &program;
    runOptions_ = options;
    if (options.resetMicroarch) {
        hier_.resetCaches();
        predictor_->reset();
    }
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

    // The effective per-run limit is the tighter of the per-run safety
    // valve and what remains of the trial's cycle budget (watchdog).
    runMaxCycles_ = budgetSet_
        ? std::min(options.maxCycles, budgetRemaining_)
        : options.maxCycles;
    runBudgetBinding_ = budgetSet_ && budgetRemaining_ <
        options.maxCycles;
    runActive_ = true;
}

bool
Core::runStep()
{
    // Loop-head conditions of the historical run() loop, in order.
    if (halted_ || committed_ >= runOptions_.maxInstructions)
        return false;
    if (now_ - runStart_ >= runMaxCycles_) {
        runResult_.cycleLimitReached = true;
        limitTripped_ = true;
        if (runBudgetBinding_) {
            if (!budgetWarned_) {
                budgetWarned_ = true;
                warn("Core::run: trial cycle budget exhausted with ",
                     committed_, " instructions committed in this "
                     "run; the trial will be censored");
            }
        } else {
            warn("Core::run: cycle budget exhausted after ",
                 runOptions_.maxCycles, " cycles with only ", committed_,
                 " of ", runOptions_.maxInstructions,
                 " instructions committed (no HALT reached); "
                 "returning a partial RunResult — raise "
                 "RunOptions::maxCycles if the program legitimately "
                 "runs this long");
        }
        return false;
    }
    ++now_;
    ++simTicks_;
    if (kTraceEnabled && eventTrace_ != nullptr)
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

    tickWriteback(*program_);
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
        if (now_ % audit::period() == 0)
            auditInvariants();
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
    if (budgetSet_)
        budgetRemaining_ -= std::min(budgetRemaining_, runResult_.cycles);
    program_ = nullptr;
    runActive_ = false;
    return runResult_;
}

void
Core::advanceTo(Cycle cycle)
{
    if (cycle <= now_)
        return;
    now_ = cycle;
    if (kTraceEnabled && eventTrace_ != nullptr)
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
    unsigned issued = 0;
    // Walk the operand-ready unissued list (ascending seq, the same
    // relative order as the historical full-window scan — entries
    // whose operands are not ready could never issue, so skipping them
    // outright changes no decision). Readiness is maintained eagerly
    // by the ROB's dependency wakeup at dispatch/markDone, replacing
    // the per-cycle O(occupancy) tryWakeup rescan that dominated the
    // simulator's profile. rob_.markIssued erases the current element,
    // so the index only advances on skip.
    const auto &window = rob_.readyUnissued();
    for (std::size_t i = 0; i < window.size();) {
        if (issued >= cfg_.core.issueWidth)
            break;
        RobEntry &entry = *rob_.find(window[i]);

        const Opcode op = entry.inst.op;

        if (op == Opcode::LOAD) {
            const Addr addr =
                entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
            const auto gate = LoadStoreQueue::gateLoad(
                rob_, entry.seq, addr, entry.inst.size);
            if (gate.gate == LoadGate::Blocked) {
                ++i;
                continue;
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
                ++i;
                continue;
            }
            entry.effAddr = addr;
            rob_.markIssued(entry);
            entry.issueCycle = now_;
            ++loads_;
            if (gate.gate == LoadGate::Forward) {
                entry.result = gate.forwardValue;
                entry.readyCycle = now_ + 1;
            } else {
                entry.speculative = speculative;
                if (speculative &&
                    cfg_.cleanupMode == CleanupMode::InvisiSpec) {
                    // Invisible scheme: serve from the shadow buffer;
                    // no cache state changes until commit.
                    entry.memRecord =
                        hier_.accessInvisible(addr, now_, entry.seq);
                } else if (speculative &&
                           cfg_.cleanupMode == CleanupMode::SafeSpec) {
                    // Shadow L1: the fill lands next to the caches, not
                    // in them; promoted at commit, discarded on squash.
                    entry.memRecord =
                        hier_.accessSafeSpec(addr, now_, entry.seq);
                } else if (speculative &&
                           cfg_.cleanupMode == CleanupMode::CacheSquash) {
                    // The fill parks in a cancellable MSHR entry;
                    // squash propagates into the MSHR and cancels it.
                    entry.memRecord =
                        hier_.accessCacheSquash(addr, now_, entry.seq);
                } else {
                    entry.memRecord = hier_.access(addr, now_, false,
                                                   speculative,
                                                   entry.seq);
                }
                entry.hasMemRecord = true;
                entry.readyCycle = entry.memRecord.ready;
                entry.result = hier_.mem().read(addr, entry.inst.size);
            }
            ++issued;
            continue;
        }

        if (op == Opcode::STORE) {
            entry.effAddr =
                entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
            entry.storeValue = entry.srcValue[1];
            rob_.markIssued(entry);
            entry.issueCycle = now_;
            entry.readyCycle = now_ + 1;
            ++issued;
            continue;
        }

        if (op == Opcode::CLFLUSH) {
            // clflush is ordered: it only executes non-speculatively,
            // after all older memory operations have completed.
            if (rob_.olderUnresolvedBranch(entry.seq) ||
                !LoadStoreQueue::fenceReady(rob_, entry.seq)) {
                ++i;
                continue;
            }
            const Addr addr =
                entry.srcValue[0] + static_cast<Addr>(entry.inst.imm);
            entry.effAddr = addr;
            hier_.flushLine(addr);
            rob_.markIssued(entry);
            entry.issueCycle = now_;
            entry.readyCycle = now_ + cfg_.core.clflushLatency;
            ++issued;
            continue;
        }

        if (op == Opcode::FENCE) {
            if (!LoadStoreQueue::fenceReady(rob_, entry.seq)) {
                ++i;
                continue;
            }
            rob_.markIssued(entry);
            entry.issueCycle = now_;
            entry.readyCycle = now_ + 1;
            ++issued;
            continue;
        }

        if (op == Opcode::RDTSCP) {
            // Serializing: waits for every older instruction. An older
            // not-done entry is either still unissued (then the full
            // unissued list's head is older than us) or
            // issued-but-outstanding.
            const auto &outst = rob_.outstanding();
            const bool all_older_done =
                rob_.unissued().front() == entry.seq &&
                (outst.empty() || outst.front() >= entry.seq);
            if (!all_older_done) {
                ++i;
                continue;
            }
            entry.result = now_;
            rob_.markIssued(entry);
            entry.issueCycle = now_;
            entry.readyCycle = now_ + 1;
            ++issued;
            continue;
        }

        // ALU ops and conditional branches.
        executeEntry(entry);
        rob_.markIssued(entry);
        entry.issueCycle = now_;
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
        ++issued;
    }
}

void
Core::tickWriteback(const Program &program)
{
    (void)program;
    // Walk the issued-but-not-done side list (ascending seq, same
    // order as a full ROB scan). rob_.markDone erases the current
    // element, so the index only advances on skip.
    const auto &outstanding = rob_.outstanding();
    for (std::size_t i = 0; i < outstanding.size();) {
        RobEntry &entry = *rob_.find(outstanding[i]);
        if (entry.readyCycle > now_) {
            ++i;
            continue;
        }
        rob_.markDone(entry);
        if (isCondBranch(entry.inst.op)) {
            resolveBranch(entry);
            if (entry.mispredicted) {
                // Younger entries are gone (and trimmed off the side
                // lists); nothing left to complete this cycle.
                break;
            }
        }
    }
}

void
Core::resolveBranch(RobEntry &branch)
{
    ++branches_;
    branch.actualNextPc = branch.resolvedTaken
        ? static_cast<std::size_t>(branch.inst.target)
        : branch.pc + 1;
    predictor_->update(branch.pc, branch.resolvedTaken);

    const bool mispredicted =
        branch.resolvedTaken != branch.predictedTaken;
    if (kTraceEnabled && eventTrace_ != nullptr &&
        eventTrace_->enabled(kTraceCatBranch)) {
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
    const auto &squashed = rob_.squashYoungerThan(branch.seq);

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
    if constexpr (kAuditEnabled)
        hier_.auditRollbackComplete(branch.seq, now_);

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
        if (isMem(fetched.inst.op) &&
            LoadStoreQueue::occupancy(rob_) >= lsq_.capacity()) {
            break;
        }

        RobEntry entry;
        entry.seq = nextSeq_++;
        entry.pc = fetched.pc;
        entry.inst = fetched.inst;
        entry.predictedTaken = fetched.predictedTaken;
        entry.dispatchCycle = now_;

        const Opcode op = entry.inst.op;
        const RegIndex sources[2] = {entry.inst.rs1, entry.inst.rs2};
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
                // Pending producer: ReorderBuffer::push registers this
                // entry for an eager wakeup at the producer's markDone.
                entry.producer[slot] = producer;
                entry.srcReady[slot] = false;
            }
        }

        if (writesReg(op))
            rat_[entry.inst.rd] = entry.seq;

        // Instructions with no work complete at dispatch.
        if (op == Opcode::NOP || op == Opcode::HALT || op == Opcode::JMP) {
            entry.issued = true;
            entry.done = true;
            entry.readyCycle = now_;
            if (op == Opcode::JMP) {
                entry.resolvedTaken = true;
                entry.actualNextPc =
                    static_cast<std::size_t>(entry.inst.target);
            }
        }

        rob_.push(std::move(entry));
        decodeQueue_.pop_front();
        ++dispatched;
    }
}

void
Core::tickFetch(const Program &program)
{
    if (fetchStopped_ || now_ < fetchResumeCycle_)
        return;

    const std::size_t queue_limit =
        static_cast<std::size_t>(cfg_.core.fetchWidth) *
        (cfg_.core.decodeDepth + 2);

    unsigned fetched = 0;
    while (fetched < cfg_.core.fetchWidth &&
           decodeQueue_.size() < queue_limit) {
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
        fetched_inst.inst = inst;
        fetched_inst.availCycle = avail;

        if (kTraceEnabled && eventTrace_ != nullptr &&
            eventTrace_->enabled(kTraceCatCpu)) {
            eventTrace_->instant(TraceKind::Fetch, kSeqNone, kAddrInvalid,
                                 fetched_inst.pc);
        }

        if (isCondBranch(inst.op)) {
            fetched_inst.predictedTaken =
                predictor_->predict(fetchPC_);
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
