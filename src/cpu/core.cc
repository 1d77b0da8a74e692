#include "cpu/core.hh"

#include <algorithm>
#include <bit>
#include <initializer_list>

#include "common/logging.hh"

namespace siq
{

namespace
{
/** Physical register handle: file selector in the high bits (see
 *  regHandleStride in core.hh for the packing invariant). */
int
handleOf(int file, int phys)
{
    return file * regHandleStride + phys;
}
} // namespace

void
CompletionWheel::init(int maxLatency)
{
    SIQ_ASSERT(maxLatency >= 1, "wheel needs a positive horizon");
    constexpr std::uint64_t slotCap = 4096;
    const auto want = static_cast<std::uint64_t>(maxLatency) + 2;
    const std::uint64_t n =
        std::bit_ceil(want < slotCap ? want : slotCap);
    slots.assign(n, {});
    mask = n - 1;
}

void
CompletionWheel::popDue(std::uint64_t now, std::vector<Completion> &out)
{
    out.clear();
    auto &vec = slots[now & mask];
    std::size_t keep = 0;
    for (const Event &ev : vec) {
        if (ev.cycle == now)
            out.push_back({ev.robIdx, ev.gen});
        else
            vec[keep++] = ev; // beyond-horizon lap: keep, in order
    }
    vec.resize(keep);
    inFlight -= out.size();
}

std::uint64_t
CompletionWheel::nextDue(std::uint64_t now) const
{
    if (inFlight == 0)
        return ~0ull;
    // an event due at now + k (k < one lap) sits in slot (now + k) &
    // mask, so the first slot holding one due on this lap is the
    // earliest; later-lap events sharing those slots are skipped
    for (std::uint64_t k = 0; k <= mask; k++) {
        for (const Event &ev : slots[(now + k) & mask]) {
            if (ev.cycle == now + k)
                return ev.cycle;
        }
    }
    // nothing due within one lap: only beyond-horizon events remain
    std::uint64_t best = ~0ull;
    for (const auto &vec : slots) {
        for (const Event &ev : vec) {
            SIQ_ASSERT(ev.cycle >= now, "in-flight event in the past");
            if (ev.cycle < best)
                best = ev.cycle;
        }
    }
    return best;
}

Core::Core(const Program &prog, const CoreConfig &config,
           IqLimitController *controller, FuncTrace *trace)
    : cfg(config), ctrl(controller), mem(config.mem),
      _bpred(config.bpred), iq(config.iq), lsq(config.lsq),
      intRegs(config.intRegs), fpRegs(config.fpRegs), pcs(prog)
{
    if (trace == nullptr) {
        // the aliasing pointer owns nothing: the caller keeps prog
        // alive for the core's lifetime (Core(Program&&) is deleted)
        ownTrace = std::make_unique<FuncTrace>(
            std::shared_ptr<const Program>(
                std::shared_ptr<const Program>(), &prog));
        trace = ownTrace.get();
    }
    // replaying a trace of a different instruction stream would
    // silently simulate the wrong program
    SIQ_ASSERT(trace->program().contentHash == prog.contentHash,
               "trace/program content mismatch");
    if (ctrl != nullptr)
        readLimits();
    stream = TraceCursor(trace);
    fetchLineShift = std::countr_zero(cfg.mem.l1i.lineBytes);
    SIQ_ASSERT(cfg.robSize > 0, "empty ROB");
    SIQ_ASSERT(cfg.fetchQueueSize > 0, "empty fetch queue");
    SIQ_ASSERT(cfg.intRegs.numPhys <= regHandleStride &&
               cfg.fpRegs.numPhys <= regHandleStride,
               "handle packing requires phys < ", regHandleStride);
    rob.assign(static_cast<std::size_t>(cfg.robSize), RobCold{});
    robHot.assign(static_cast<std::size_t>(cfg.robSize), RobHot{});
    robCompleted.assign(static_cast<std::size_t>(cfg.robSize), 0);
    robGen.assign(static_cast<std::size_t>(cfg.robSize), 0);
    fetchQueue.assign(static_cast<std::size_t>(cfg.fetchQueueSize),
                      DynInst{});
    // the wheel's one-lap horizon covers every latency the model can
    // produce: FU latencies plus the configured cache/memory path
    wheel.init(std::max({maxOpcodeLatency(), cfg.mem.l1d.hitLatency,
                         cfg.mem.l2.hitLatency, cfg.mem.memLatency,
                         1}));
}

int
Core::fuUnitsBusy(int fu)
{
    if (nonPipedPruned[fu] != now) {
        auto &busy = nonPipedBusy[fu];
        std::erase_if(busy, [this](std::uint64_t until) {
            return until <= now;
        });
        nonPipedCount[fu] = static_cast<int>(busy.size());
        nonPipedPruned[fu] = now;
    }
    return nonPipedCount[fu];
}

void
Core::noteNonPipedIssue(int fu, std::uint64_t until)
{
    fuUnitsBusy(fu); // make this cycle's memoized count current
    nonPipedBusy[fu].push_back(until);
    nonPipedCount[fu]++;
}

int
Core::sourceHandle(int archReg, bool &ready) const
{
    if (archReg < 0 || archReg == zeroReg) {
        ready = true;
        return -1;
    }
    if (archReg >= fpRegBase) {
        const int phys = fpRegs.lookup(archReg - fpRegBase);
        ready = fpRegs.isReady(phys);
        return handleOf(1, phys);
    }
    const int phys = intRegs.lookup(archReg);
    ready = intRegs.isReady(phys);
    return handleOf(0, phys);
}

void
Core::predictControl(DynInst &di, const PcEntry &e,
                     std::uint64_t actualNext)
{
    const StaticInst &si = *di.si;
    const auto &t = si.traits();
    const std::uint64_t pc = si.pc;

    bool mispredict = false;
    bool frontRedirect = false;
    // where wrong-path fetch starts (speculative mode): the path the
    // predictor chose, not the path the program took. 0 = the front
    // end has nothing to follow (empty RAS, cold BTB) and gates.
    std::uint64_t wpStart = 0;

    if (t.isBranch) {
        _stats.condBranches++;
        const bool predTaken = _bpred.predictDirection(pc);
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (predTaken != di.taken) {
            mispredict = true;
            if (cfg.specFrontEnd) {
                // direct branches resolve both targets at decode, so
                // the wrong path is the other static arm
                wpStart = di.taken ? e.seqPc : e.takenPc;
            }
        } else if (di.taken && btbTarget != actualNext) {
            // right direction, target resolved at decode
            frontRedirect = true;
        }
        _bpred.updateDirection(pc, di.taken);
        if (di.taken)
            _bpred.btbUpdate(pc, actualNext);
    } else if (si.op == Opcode::Jump || si.op == Opcode::Call) {
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (btbTarget != actualNext)
            frontRedirect = true;
        _bpred.btbUpdate(pc, actualNext);
        if (si.op == Opcode::Call)
            _bpred.rasPush(e.rasPushPc);
    } else if (si.op == Opcode::Ret) {
        const std::uint64_t predicted = _bpred.rasPop();
        if (predicted != actualNext && !di.halted) {
            mispredict = true;
            wpStart = predicted;
        }
    } else if (si.op == Opcode::IJump) {
        const std::uint64_t btbTarget = _bpred.btbLookup(pc);
        if (btbTarget != actualNext) {
            mispredict = true;
            wpStart = btbTarget;
        }
        _bpred.btbUpdate(pc, actualNext);
    }

    if (mispredict) {
        di.stallsFetch = true;
        _stats.branchMispredicts++;
        _bpred.countMispredict();
        // arm after the branch's own predictor update: the snapshot
        // taken here is the exact state correct-path fetch resumes
        // from, so the squash undoes only wrong-path training
        if (cfg.specFrontEnd)
            armWrongPath(wpStart);
    } else if (frontRedirect) {
        _stats.frontRedirects++;
        fetchResumeCycle = now + static_cast<std::uint64_t>(
                                     cfg.decodeDepth);
    }
}

void
Core::commitStage()
{
    int committed = 0;
    while (committed < cfg.commitWidth && robCount > 0 &&
           !coreHalted) {
        if (!robCompleted[robHead])
            break;
        const RobCold &di = rob[robHead];
        const RobHot &h = robHot[robHead];
        if (h.flags & robFlagStore)
            mem.dataAccess(h.memAddr * 8);
        if (h.flags & (robFlagLoad | robFlagStore))
            lsq.releaseHead(h.lsqIdx);
        if (di.oldPdst >= 0) {
            (di.dstFile == 1 ? fpRegs : intRegs)
                .release(di.oldPdst);
        }
        if (di.si->op == Opcode::Halt)
            coreHalted = true;
        robHead = robHead + 1 == cfg.robSize ? 0 : robHead + 1;
        robCount--;
        committed++;
        _stats.committed++;
    }
}

void
Core::writebackStage()
{
    wheel.popDue(now, wbScratch);
    for (const auto &ev : wbScratch) {
        // an event scheduled under a generation a squash has since
        // bumped belongs to a flushed entry (possibly re-dispatched):
        // discard it. Re-checked per event, not once per batch — the
        // squash below may invalidate later events of this same cycle.
        if (ev.gen != robGen[ev.robIdx])
            continue;
        const int robIdx = ev.robIdx;
        const RobHot &h = robHot[robIdx];
        robCompleted[robIdx] = 1;
        if (h.pdstHandle >= 0) {
            if (h.pdstHandle >= regHandleStride) {
                fpRegs.setReady(h.pdstHandle - regHandleStride);
                _stats.rfFpWrites++;
            } else {
                intRegs.setReady(h.pdstHandle);
                _stats.rfIntWrites++;
            }
            iq.wakeup(h.pdstHandle);
        }
        if (h.flags & robFlagStore)
            lsq.markCompleted(h.lsqIdx);
        if (h.flags & robFlagStallsFetch) {
            if (cfg.specFrontEnd)
                squashWrongPath();
            fetchBlocked = false;
            fetchResumeCycle =
                std::max<std::uint64_t>(fetchResumeCycle, now + 1);
        }
    }
}

void
Core::issueStage()
{
    iq.collectReady(readyScratch);
    FuUse fuUsed{};
    const int regionAtStart = iq.regionSize();
    int issued = 0;

    for (const auto &cand : readyScratch) {
        if (issued >= cfg.issueWidth)
            break;
        const RobHot &h = robHot[cand.robIdx];
        if (issueBlock(h, fuUsed) != IssueBlock::None)
            continue;
        const int fu = h.fu;

        const bool wrongPath = (h.flags & robFlagWrongPath) != 0;
        int latency = h.latency;
        if (h.flags & robFlagLoad) {
            if (!wrongPath)
                _stats.loads++;
            if (lsq.loadForwards(h.lsqIdx)) {
                latency = 1;
                if (!wrongPath)
                    _stats.loadForwards++;
            } else {
                latency = mem.dataAccess(h.memAddr * 8);
            }
        }
        if (h.flags & robFlagPipelined) {
            fuUsed[fu]++;
        } else {
            noteNonPipedIssue(
                fu, now + static_cast<std::uint64_t>(latency));
        }
        issued++;
        iq.markIssued(cand.slot);
        if (h.flags & (robFlagLoad | robFlagStore))
            lsq.markIssued(h.lsqIdx);
        wheel.schedule(now + static_cast<std::uint64_t>(latency),
                       cand.robIdx, robGen[cand.robIdx]);

        for (const int src : {h.psrc1, h.psrc2}) {
            if (src >= 0)
                (src >= regHandleStride ? _stats.rfFpReads
                                        : _stats.rfIntReads)++;
        }
        if (wrongPath)
            _stats.wrongPathIssued++;
        else
            _stats.issued++;
        if (regionAtStart - 1 - cand.distFromHead < cfg.iq.bankSize)
            signals.issuedFromYoungestBank++;
    }
}

Core::IssueBlock
Core::issueBlock(const RobHot &h, const FuUse &fuUsed)
{
    // a pipelined unit is busy for one issue slot; a non-pipelined
    // one (divides) holds its unit for the full latency, tracked in
    // fuUnitsBusy
    const int fu = h.fu;
    if (fu != static_cast<int>(FuClass::None) &&
        fuUsed[fu] + fuUnitsBusy(fu) >= cfg.fuCounts[fu])
        return IssueBlock::Fu;
    if ((h.flags & robFlagLoad) && lsq.loadBlocked(h.lsqIdx))
        return IssueBlock::Load;
    return IssueBlock::None;
}

Core::DispatchBlock
Core::dispatchBlock(const DynInst &front) const
{
    if (front.decodeReadyCycle > now)
        return DispatchBlock::NotDecoded;
    const StaticInst &si = *front.si;
    if (si.op == Opcode::Hint)
        return DispatchBlock::Hint;
    const auto &t = si.traits();
    const bool needsIq = t.fu != FuClass::None;
    if (robCount >= cfg.robSize)
        return DispatchBlock::Rob;
    if (robCount >= robLimit)
        return DispatchBlock::RobLimit;
    if (needsIq && iq.regionFull())
        return DispatchBlock::IqFull;
    if (needsIq && iq.validCount() >= iqLimit)
        return DispatchBlock::IqLimit;
    if (si.tagHint != 0 && !front.hintApplied)
        return DispatchBlock::TagHint;
    if (needsIq && iq.rangeBlocked())
        return DispatchBlock::Range;
    if ((t.isLoad || t.isStore) && lsq.full())
        return DispatchBlock::Lsq;
    if (si.writesLiveReg() &&
        !(si.dst >= fpRegBase ? fpRegs : intRegs).hasFree())
        return DispatchBlock::Regs;
    return DispatchBlock::None;
}

std::uint64_t *
Core::stallCounter(DispatchBlock b)
{
    switch (b) {
    case DispatchBlock::Rob:
        return &_stats.dispatchStallRob;
    case DispatchBlock::RobLimit:
    case DispatchBlock::IqLimit:
        return &_stats.dispatchStallLimit;
    case DispatchBlock::IqFull:
        return &_stats.dispatchStallIqFull;
    case DispatchBlock::Range:
        return &_stats.dispatchStallRange;
    case DispatchBlock::Lsq:
        return &_stats.dispatchStallLsq;
    case DispatchBlock::Regs:
        return &_stats.dispatchStallRegs;
    default:
        return nullptr;
    }
}

void
Core::dispatchStage()
{
    int dispatched = 0;
    while (dispatched < cfg.dispatchWidth && fqCount > 0) {
        DynInst &front = fetchQueue[fqHead];
        DispatchBlock block = dispatchBlock(front);

        // special NOOPs are stripped here, in the last decode stage,
        // consuming a dispatch slot (paper §5.2.1). A wrong-path hint
        // must not retrain the IQ sizing — the squash cannot undo an
        // applyHint — so it only burns the slot.
        if (block == DispatchBlock::Hint) {
            if (front.wrongPath) {
                _stats.wrongPathDispatched++;
            } else {
                iq.applyHint(front.si->hintValue);
                _stats.hintsApplied++;
            }
            fqPop();
            dispatched++;
            continue;
        }
        // Extension scheme: the tag applies when the tagged
        // instruction dispatches, before the range check, so the
        // tagged instruction starts its own region. applyHint moves
        // none of the checks before it: asking again resumes there.
        if (block == DispatchBlock::TagHint) {
            iq.applyHint(front.si->tagHint);
            front.hintApplied = true;
            _stats.hintsApplied++;
            block = dispatchBlock(front);
        }
        if (block != DispatchBlock::None) {
            if (std::uint64_t *ctr = stallCounter(block))
                (*ctr)++;
            signals.dispatchStalledByLimit = isLimitStall(block);
            break;
        }

        // rename: sources first, then the destination
        const auto &t = front.si->traits();
        const bool needsIq = t.fu != FuClass::None;
        bool ready1 = true;
        bool ready2 = true;
        const int psrc1 =
            t.readsSrc1 ? sourceHandle(front.si->src1, ready1) : -1;
        const int psrc2 =
            t.readsSrc2 ? sourceHandle(front.si->src2, ready2) : -1;
        int dstFile = -1;
        int pdstHandle = -1;
        int oldPdst = -1;
        if (front.si->writesLiveReg()) {
            dstFile = front.si->dst >= fpRegBase ? 1 : 0;
            auto &file = dstFile == 1 ? fpRegs : intRegs;
            const int arch = dstFile == 1
                                 ? front.si->dst - fpRegBase
                                 : front.si->dst;
            const auto [fresh, old] = file.rename(arch);
            pdstHandle = handleOf(dstFile, fresh);
            oldPdst = old;
        }

        const int robIdx = robTail;
        const int lsqIdx =
            t.isLoad || t.isStore
                ? lsq.allocate(t.isStore, front.memAddr, robIdx)
                : -1;
        if (t.isStore && !front.wrongPath)
            _stats.stores++;
        if (needsIq)
            iq.dispatch(robIdx, psrc1, ready1, psrc2, ready2);
        rob[robIdx] = {front.si, oldPdst,
                       static_cast<std::int8_t>(dstFile)};
        RobHot &h = robHot[robIdx];
        h.memAddr = front.memAddr;
        h.lsqIdx = lsqIdx;
        h.pdstHandle = pdstHandle;
        h.psrc1 = psrc1;
        h.psrc2 = psrc2;
        h.latency = static_cast<std::int16_t>(t.latency);
        h.fu = static_cast<std::int8_t>(t.fu);
        h.flags = static_cast<std::uint8_t>(
            (t.pipelined ? robFlagPipelined : 0) |
            (t.isLoad ? robFlagLoad : 0) |
            (t.isStore ? robFlagStore : 0) |
            (front.stallsFetch ? robFlagStallsFetch : 0) |
            (front.wrongPath ? robFlagWrongPath : 0));
        // Nop/Halt never execute: complete at dispatch
        robCompleted[robIdx] = needsIq ? 0 : 1;
        // the mispredicted branch just renamed itself: the maps are
        // now exactly the state the squash must restore (wrong-path
        // instructions sit behind it and dispatch strictly later)
        if (cfg.specFrontEnd && front.stallsFetch) {
            ckpt.branchRobIdx = robIdx;
            intRegs.snapshotMap(ckpt.intMap);
            fpRegs.snapshotMap(ckpt.fpMap);
        }
        fqPop();
        robTail = robTail + 1 == cfg.robSize ? 0 : robTail + 1;
        robCount++;
        dispatched++;
        if (front.wrongPath)
            _stats.wrongPathDispatched++;
        else
            _stats.dispatched++;
    }
}

bool
Core::icacheHit(std::uint64_t pc)
{
    const std::uint64_t line = pc >> fetchLineShift;
    if (line == lastFetchLine)
        return true;
    const int latency = mem.instAccess(pc);
    lastFetchLine = line;
    if (latency <= 1)
        return true;
    icacheReadyCycle = now + static_cast<std::uint64_t>(latency);
    return false;
}

DynInst &
Core::claimFetchSlot()
{
    DynInst &di = fetchQueue[fqTail];
    di = DynInst{};
    di.decodeReadyCycle =
        now + static_cast<std::uint64_t>(cfg.decodeDepth);
    fqTail = fqTail + 1 == cfg.fetchQueueSize ? 0 : fqTail + 1;
    fqCount++;
    return di;
}

void
Core::fetchStage()
{
    if (now < fetchResumeCycle || now < icacheReadyCycle ||
        !fetchWouldRun())
        return;
    // while a mispredicted branch is in flight the front end follows
    // the predicted path
    if (wpActive) {
        wrongPathFetchStage();
        return;
    }
    int fetched = 0;
    while (fetched < cfg.fetchWidth &&
           fqCount < cfg.fetchQueueSize && !streamHalted) {
        // the next record, without consuming it: an icache miss ends
        // the fetch group before it is fetched
        const TraceRecord &rec = stream.at(streamIdx);
        const PcEntry &e = pcs.at(rec.entry());
        if (!icacheHit(e.si->pc))
            break;
        streamIdx++;
        DynInst &di = claimFetchSlot();
        di.si = e.si;
        const auto &t = e.si->traits();
        // aux is the load/store address or a Ret/IJump's next PC
        di.memAddr = t.isLoad || t.isStore ? rec.aux : 0;
        di.taken = rec.taken();
        di.halted = rec.halted();
        streamHalted = di.halted;

        const std::uint64_t resumeBefore = fetchResumeCycle;
        predictControl(di, e, recordNextPc(rec, e));
        const bool redirected = fetchResumeCycle != resumeBefore;
        const bool taken = di.taken || t.isJump;
        _stats.fetched++;
        fetched++;

        if (di.stallsFetch) {
            fetchBlocked = true;
            break;
        }
        if (redirected || taken)
            break; // cannot fetch past a taken control this cycle
    }
}

void
Core::armWrongPath(std::uint64_t startPc)
{
    // mispredicts are only detected at correct-path fetch, which is
    // paused until this one resolves — checkpoints cannot nest
    SIQ_ASSERT(!wpActive, "nested mispredict checkpoint");
    wpActive = true;
    wpStalled = startPc == 0;
    wpPc = startPc;
    ckpt.armCycle = now;
    ckpt.branchRobIdx = -1;
    _bpred.save(ckpt.bpred);
}

void
Core::wrongPathFetchStage()
{
    int fetched = 0;
    while (fetched < cfg.fetchWidth && fqCount < cfg.fetchQueueSize) {
        const PcEntry *e = pcs.find(wpPc);
        if (e == nullptr) {
            // a stale BTB/RAS entry predicted a PC that is no longer
            // (or never was) an instruction: misfetch, gate until the
            // squash
            wpStalled = true;
            return;
        }
        if (!icacheHit(wpPc))
            return;

        DynInst &di = claimFetchSlot();
        // hintApplied pre-set: tag hints are correct-path-only (like
        // Hint NOOPs, their applyHint cannot be undone by the squash)
        di.hintApplied = true;
        di.wrongPath = true;
        di.si = e->si;
        // loads/stores need an address; the architectural one does
        // not exist (the op never really executes)
        di.memAddr = e->wrongPathAddr;

        const WpNext nxt = wrongPathNextPc(*e);
        _stats.wrongPathFetched++;
        fetched++;

        if (nxt.pc == 0) {
            // halt, dead-end fallthrough chain, empty RAS or cold BTB
            wpStalled = true;
            return;
        }
        wpPc = nxt.pc;
        if (nxt.taken)
            return; // cannot fetch past a taken control this cycle
    }
}

Core::WpNext
Core::wrongPathNextPc(const PcEntry &e)
{
    const StaticInst &si = *e.si;
    if (si.traits().isBranch) {
        // predictor-guided: shifts speculative history (restored at
        // the squash) but trains no table — the outcome is unknown
        if (_bpred.speculateDirection(si.pc))
            return {e.takenPc, true};
        return {e.seqPc, false};
    }
    switch (si.op) {
    case Opcode::Jump:
        return {e.takenPc, true};
    case Opcode::Call:
        // same push value as correct-path fetch (the caller block's
        // fallthrough); takenPc is the callee's entry
        _bpred.rasPush(e.rasPushPc);
        return {e.takenPc, true};
    case Opcode::Ret:
        return {_bpred.rasPop(), true};
    case Opcode::IJump:
        return {_bpred.btbLookup(si.pc), true};
    case Opcode::Halt:
        return {0, true};
    default:
        return {e.seqPc, false};
    }
}

void
Core::squashWrongPath()
{
    SIQ_ASSERT(wpActive, "squash without an armed wrong path");
    SIQ_ASSERT(ckpt.branchRobIdx >= 0,
               "branch resolved before it dispatched");

    // flush ROB entries younger than the branch (walk oldest-first
    // from just past it to the tail), releasing the fresh physical
    // register each one allocated — its previous mapping returns via
    // the checkpointed map below
    int flushed = 0;
    int iqDispatches = 0;
    int lsqEntries = 0;
    const int afterBranch =
        ckpt.branchRobIdx + 1 == cfg.robSize ? 0 : ckpt.branchRobIdx + 1;
    int idx = afterBranch;
    while (idx != robTail) {
        const RobHot &h = robHot[idx];
        SIQ_ASSERT(h.flags & robFlagWrongPath,
                   "correct-path entry younger than the mispredict");
        if (h.pdstHandle >= 0) {
            if (h.pdstHandle >= regHandleStride)
                fpRegs.release(h.pdstHandle - regHandleStride);
            else
                intRegs.release(h.pdstHandle);
        }
        if (rob[idx].si->traits().fu != FuClass::None)
            iqDispatches++;
        if (h.flags & (robFlagLoad | robFlagStore))
            lsqEntries++;
        robGen[idx]++; // invalidate any in-flight completion event
        robCompleted[idx] = 0;
        flushed++;
        idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
    }
    robTail = afterBranch;
    robCount -= flushed;

    iq.squashTail(iqDispatches);
    lsq.squashTail(lsqEntries);

    // the fetch queue holds only wrong-path instructions: everything
    // fetched before the branch dispatched before it (in order), and
    // correct-path fetch has been paused since
    const int fqFlushed = fqCount;
    for (int i = 0, s = fqHead; i < fqCount;
         i++, s = s + 1 == cfg.fetchQueueSize ? 0 : s + 1) {
        SIQ_ASSERT(fetchQueue[s].wrongPath,
                   "correct-path instruction behind the mispredict");
    }
    fqTail = fqHead;
    fqCount = 0;

    intRegs.restoreMap(ckpt.intMap);
    fpRegs.restoreMap(ckpt.fpMap);
    _bpred.restore(ckpt.bpred);

    _stats.squashes++;
    _stats.squashCycles += now - ckpt.armCycle;
    _stats.squashedInsts +=
        static_cast<std::uint64_t>(flushed + fqFlushed);

    wpActive = false;
    wpStalled = false;
    wpPc = 0;
    ckpt.branchRobIdx = -1;
    // lastFetchLine stays: the wrong path really did pull its lines
    // into the icache (pollution is part of the model)
}

void
Core::auditArchState() const
{
    SIQ_ASSERT(robCount >= 0 && robCount <= cfg.robSize,
               "ROB count out of range: ", robCount);
    SIQ_ASSERT((robHead + robCount) % cfg.robSize == robTail,
               "ROB ring pointers inconsistent");
    SIQ_ASSERT(fqCount >= 0 && fqCount <= cfg.fetchQueueSize,
               "fetch-queue count out of range: ", fqCount);
    SIQ_ASSERT((fqHead + fqCount) % cfg.fetchQueueSize == fqTail,
               "fetch-queue ring pointers inconsistent");

    // rename discipline: every allocated physical register is
    // referenced exactly once — by the map, or as the pending oldPdst
    // release of exactly one in-flight ROB entry
    const auto auditFile = [this](const RegFile &rf, int file) {
        std::vector<int> refs(
            static_cast<std::size_t>(rf.config().numPhys), 0);
        for (int a = 0; a < rf.config().numArch; a++) {
            const int p = rf.lookup(a);
            SIQ_ASSERT(p >= 0 && p < rf.config().numPhys,
                       "map entry out of range: ", p);
            refs[p]++;
        }
        int idx = robHead;
        for (int i = 0; i < robCount; i++) {
            const RobCold &c = rob[idx];
            if (c.dstFile == file && c.oldPdst >= 0)
                refs[c.oldPdst]++;
            idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
        }
        int referenced = 0;
        for (const int r : refs) {
            SIQ_ASSERT(r <= 1, "physical register referenced ", r,
                       " times");
            referenced += r;
        }
        SIQ_ASSERT(referenced == rf.config().numPhys - rf.freeRegs(),
                   "free list disagrees with reachable registers: ",
                   referenced, " referenced, ", rf.freeRegs(),
                   " free of ", rf.config().numPhys);
        SIQ_ASSERT(referenced == rf.liveRegs(),
                   "bank liveness disagrees with reachable registers");
    };
    auditFile(intRegs, 0);
    auditFile(fpRegs, 1);

    // LSQ population matches the in-flight memory ops exactly
    int memOps = 0;
    int idx = robHead;
    for (int i = 0; i < robCount; i++) {
        if (robHot[idx].flags & (robFlagLoad | robFlagStore))
            memOps++;
        idx = idx + 1 == cfg.robSize ? 0 : idx + 1;
    }
    SIQ_ASSERT(memOps == lsq.size(), "LSQ holds ", lsq.size(),
               " entries but ", memOps, " memory ops are in flight");
    SIQ_ASSERT(iq.validCount() <= robCount,
               "more IQ entries than ROB entries");
}

void
Core::tick()
{
    signals = ResizeSignals{};

    commitStage();
    writebackStage();
    issueStage();
    dispatchStage();
    fetchStage();

    accountCycles(1);
    if (ctrl != nullptr) {
        signals.iqValid = iq.validCount();
        ctrl->tick(signals);
        readLimits();
    }
    now++;
}

void
Core::accountCycles(std::uint64_t n)
{
    _stats.cycles += n;
    iq.tickStats(n);
    _stats.rfIntLiveSum +=
        n * static_cast<std::uint64_t>(intRegs.liveRegs());
    _stats.rfIntPoweredBankCycles +=
        n * static_cast<std::uint64_t>(intRegs.poweredBanks());
    _stats.rfIntBankCycles +=
        n * static_cast<std::uint64_t>(intRegs.numBanks());
    _stats.rfFpLiveSum +=
        n * static_cast<std::uint64_t>(fpRegs.liveRegs());
    _stats.rfFpPoweredBankCycles +=
        n * static_cast<std::uint64_t>(fpRegs.poweredBanks());
    _stats.rfFpBankCycles +=
        n * static_cast<std::uint64_t>(fpRegs.numBanks());
}

void
Core::maybeFastForward()
{
    constexpr std::uint64_t noBound = ~0ull;
    // earliest future cycle at which some stage could act; stays
    // noBound only if no timer is pending (then skipping would hide
    // a genuine deadlock from run()'s no-progress assert, so don't)
    std::uint64_t next = noBound;

    // commit: acts as soon as the ROB head is completed
    if (robCount > 0 && robCompleted[robHead])
        return;

    // writeback: the earliest in-flight completion event. All events
    // are >= now (due ones were popped this tick), so this both
    // detects "due next cycle" and bounds the jump.
    next = std::min(next, wheel.nextDue(now));

    // select/issue: any ready entry that a fresh cycle could issue
    // (no width pressure: issueWidth >= 1). FU-blocked candidates
    // unblock when a non-pipelined unit frees; load-blocked ones
    // only via completion events, already bounded above.
    iq.collectReady(readyScratch);
    const FuUse noneUsed{};
    for (const auto &cand : readyScratch) {
        const RobHot &h = robHot[cand.robIdx];
        switch (issueBlock(h, noneUsed)) {
        case IssueBlock::Fu:
            for (const std::uint64_t until : nonPipedBusy[h.fu])
                next = std::min(next, until);
            break;
        case IssueBlock::Load:
            break;
        case IssueBlock::None:
            return; // issuable right now
        }
    }

    // dispatch: the stage's own verdict names the stall counter the
    // skipped cycles would have bumped
    std::uint64_t *stallCtr = nullptr;
    bool stalledByLimit = false;
    if (fqCount > 0) {
        const DynInst &front = fetchQueue[fqHead];
        const DispatchBlock block = dispatchBlock(front);
        if (block == DispatchBlock::NotDecoded) {
            next = std::min(next, front.decodeReadyCycle);
        } else {
            stallCtr = stallCounter(block);
            if (stallCtr == nullptr)
                return; // would dispatch, strip a hint or apply a tag
            stalledByLimit = isLimitStall(block);
        }
    }

    // fetch (either path): its gates clear via completion events
    // (bounded above) or via the resume/icache timers
    if (fetchWouldRun()) {
        const std::uint64_t resume =
            std::max(fetchResumeCycle, icacheReadyCycle);
        if (resume <= now)
            return; // would fetch
        next = std::min(next, resume);
    }

    // a controller's limits may change at its next decision point,
    // unblocking dispatch: never jump past it
    if (ctrl != nullptr) {
        next = std::min<std::uint64_t>(next,
                                       now + ctrl->decisionHorizon());
    }
    if (next == noBound || next <= now)
        return;

    // every cycle in [now, next) is provably dead: accumulate what
    // the per-cycle bookkeeping would have, in one step each
    const std::uint64_t delta = next - now;
    accountCycles(delta);
    if (stallCtr != nullptr)
        *stallCtr += delta;
    if (ctrl != nullptr) {
        // the observations an idle cycle delivers are constant, so
        // the controller sees exactly the sequence it would have
        ResizeSignals s;
        s.iqValid = iq.validCount();
        s.dispatchStalledByLimit = stalledByLimit;
        for (std::uint64_t u = 0; u < delta; u++)
            ctrl->tick(s);
        // nothing reads the limits between these ticks
        readLimits();
    }
    now = next;
}

std::uint64_t
Core::activity() const
{
    return _stats.committed + _stats.fetched + _stats.dispatched +
           _stats.issued + _stats.hintsApplied +
           _stats.wrongPathFetched + _stats.wrongPathDispatched +
           _stats.wrongPathIssued;
}

std::uint64_t
Core::run(std::uint64_t maxInsts)
{
    const std::uint64_t start = _stats.committed;
    std::uint64_t lastCommitted = start;
    std::uint64_t lastProgress = now;
    while (!coreHalted && _stats.committed - start < maxInsts) {
        const std::uint64_t act = activity();
        tick();
        // a tick that did nothing usually starts a dead stretch
        // (cache miss, drain, decode bubble): prove it and jump it.
        // The gate is only a heuristic — maybeFastForward re-checks
        // everything against the current state.
        if (activity() == act && wbScratch.empty())
            maybeFastForward();
        if (_stats.committed != lastCommitted) {
            lastCommitted = _stats.committed;
            lastProgress = now;
        }
        SIQ_ASSERT(now - lastProgress < 200000,
                   "no commit progress for 200k cycles: deadlock? "
                   "cycle=", now, " committed=", _stats.committed);
    }
    return _stats.committed - start;
}

void
Core::resetStats()
{
    _stats.reset();
    iq.events.reset();
    mem.resetStats();
    _bpred.resetStats();
}

} // namespace siq
