/**
 * @file
 * End-to-end core tests on small hand-built programs: completion
 * against the reference interpreter, timing sanity, hint
 * semantics (including the range invariant), mispredict penalties and
 * non-pipelined FU occupancy.
 */

#include <gtest/gtest.h>

#include <memory>

#include "compiler/pass.hh"
#include "cpu/core.hh"
#include "ir/exec.hh"
#include "sim/technique.hh"
#include "workloads/builder.hh"
#include "workloads/family.hh"

namespace siq
{
namespace
{

/** The reference interpreter run to completion: the architectural
 *  results the core's functional stream carries. */
ExecContext
runReference(const Program &prog)
{
    ExecContext ref(prog);
    while (!ref.halted())
        ref.step();
    return ref;
}

/** The core finishes @p prog and commits exactly the instructions
 *  the reference interpreter executed (the programs here hold no
 *  hint NOOPs, which never commit). */
void
expectFunctionalMatch(const Program &prog,
                      const CoreConfig &cfg = CoreConfig{})
{
    const ExecContext ref = runReference(prog);
    Core core(prog, cfg);
    core.run(1u << 24);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().committed, ref.instsExecuted());
}

Program
sumLoop(int iters)
{
    ProgramBuilder b("sum", 256);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, iters));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeAdd(3, 3, 1));
    b.endLoop(loop);
    b.emit(makeMovImm(4, 8));
    b.emit(makeStore(4, 3, 0));
    b.emit(makeHalt());
    return b.build();
}

TEST(Core, SumLoopFunctionalAndTerminates)
{
    expectFunctionalMatch(sumLoop(100));
}

TEST(Core, IpcWithinPhysicalBounds)
{
    const Program prog = sumLoop(2000);
    Core core(prog, CoreConfig{});
    core.run(1u << 24);
    const auto &s = core.stats();
    EXPECT_GT(s.ipc(), 0.5);
    EXPECT_LE(s.ipc(), 8.0);
    EXPECT_EQ(s.committed, runReference(prog).instsExecuted());
}

TEST(Core, HintNoopConsumesDispatchSlotButNeverCommits)
{
    ProgramBuilder b("hints", 64);
    b.newProc("main");
    for (int i = 0; i < 4; i++) {
        b.emit(makeHint(8));
        b.emit(makeAddImm(1, 1, 1));
    }
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().hintsApplied, 4u);
    // 4 adds + halt commit; hints do not
    EXPECT_EQ(core.stats().committed, 5u);
    EXPECT_EQ(runReference(prog).intReg(1), 4);
}

TEST(Core, TagHintAppliesWithoutDispatchSlot)
{
    ProgramBuilder b("tags", 64);
    b.newProc("main");
    StaticInst tagged = makeAddImm(1, 1, 1);
    tagged.tagHint = 6;
    b.emit(tagged);
    b.emit(makeAddImm(1, 1, 1));
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().hintsApplied, 1u);
    EXPECT_EQ(core.stats().committed, 3u);
    EXPECT_EQ(runReference(prog).intReg(1), 2);
    EXPECT_EQ(core.issueQueue().currentRange(), 6);
}

/** A long chain of dependent adds behind a tiny range. */
TEST(Core, TinyRangeThrottlesButNeverDeadlocks)
{
    ProgramBuilder b("tiny", 64);
    b.newProc("main");
    b.emit(makeHint(1)); // pathological: one entry at a time
    for (int i = 0; i < 64; i++)
        b.emit(makeAddImm(1, 1, 1));
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 22);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().committed, 65u); // hint stripped
    EXPECT_EQ(runReference(prog).intReg(1), 64);
    EXPECT_GT(core.stats().dispatchStallRange, 0u);
}

TEST(Core, RangeInvariantHoldsEveryCycle)
{
    // run a hinted program tick by tick and check the hardware
    // invariant dist(new_head, tail) <= max_new_range
    ProgramBuilder b("inv", 256);
    b.newProc("main");
    b.emit(makeHint(5));
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 200));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeMul(3, 1, 1));
    b.emit(makeAdd(4, 4, 3));
    b.endLoop(loop);
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    while (!core.done()) {
        core.tick();
        EXPECT_LE(core.issueQueue().distNewHeadToTail(),
                  core.issueQueue().currentRange());
        ASSERT_LT(core.cycle(), 100000u);
    }
}

TEST(Core, MispredictsCostCycles)
{
    // data-dependent 50/50 branch on LCG noise vs the same amount of
    // work with an always-taken pattern
    auto build = [](bool noisy) {
        ProgramBuilder b("br", 256);
        b.newProc("main");
        b.emit(makeMovImm(4, 12345));
        b.emit(makeMovImm(1, 0));
        b.emit(makeMovImm(2, 3000));
        auto loop = b.beginLoop(1, 2);
        b.emit(makeMovImm(5, 6364136223846793005ll));
        b.emit(makeMul(4, 4, 5));
        b.emit(makeAddImm(4, 4, 1442695040888963407ll));
        b.emit(makeShr(6, 4, 62));
        if (noisy) {
            b.emit(makeMovImm(7, 2));
        } else {
            b.emit(makeMovImm(7, 100)); // never below: predictable
        }
        auto d = b.beginIf(makeBlt(6, 7, -1));
        b.emit(makeAddImm(8, 8, 1));
        b.elseBranch(d);
        b.emit(makeAddImm(8, 8, 2));
        b.joinUp(d);
        b.endLoop(loop);
        b.emit(makeHalt());
        return b.build();
    };
    const Program predictableProg = build(false);
    Core predictable(predictableProg, CoreConfig{});
    predictable.run(1u << 24);
    const Program noisyProg = build(true);
    Core noisy(noisyProg, CoreConfig{});
    noisy.run(1u << 24);
    EXPECT_GT(noisy.stats().branchMispredicts,
              predictable.stats().branchMispredicts + 100);
    EXPECT_LT(noisy.stats().ipc(), predictable.stats().ipc());
}

TEST(Core, NonPipelinedDividesSerializeOnUnits)
{
    // 8 independent divides on 3 IntMul units: at most 3 in flight,
    // so the run needs at least ceil(8/3) * 12 cycles
    ProgramBuilder b("div", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 1000));
    b.emit(makeMovImm(2, 7));
    for (int i = 0; i < 8; i++)
        b.emit(makeDiv(10 + i, 1, 2));
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_GE(core.cycle(), 3u * 12u);
    EXPECT_EQ(core.stats().committed, 11u);
    EXPECT_EQ(runReference(prog).intReg(10), 142);
}

TEST(Core, StoreToLoadForwardingHappens)
{
    ProgramBuilder b("fwd", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 16));
    b.emit(makeMovImm(2, 99));
    b.emit(makeStore(1, 2, 0));
    b.emit(makeLoad(3, 1, 0)); // same address: forwards
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().committed, 5u);
    EXPECT_EQ(runReference(prog).intReg(3), 99);
    EXPECT_EQ(core.stats().loadForwards, 1u);
}

TEST(Core, CallsReturnThroughRas)
{
    ProgramBuilder b("ras", 64);
    const int leaf = b.newProc("leaf");
    b.emit(makeAddImm(9, 9, 1));
    b.emit(makeRet());
    const int mainP = b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 50));
    auto loop = b.beginLoop(1, 2);
    b.callProc(leaf);
    b.endLoop(loop);
    b.emit(makeHalt());
    Program prog = b.build();
    prog.entryProc = mainP;
    Core core(prog, CoreConfig{});
    core.run(1u << 22);
    ASSERT_TRUE(core.done());
    const ExecContext ref = runReference(prog);
    EXPECT_EQ(core.stats().committed, ref.instsExecuted());
    EXPECT_EQ(ref.intReg(9), 50);
    // after warm-up the RAS should predict nearly every return
    EXPECT_LT(core.stats().branchMispredicts, 10u);
}

TEST(Core, ResetStatsPreservesArchState)
{
    const Program prog = sumLoop(500);
    Core core(prog, CoreConfig{});
    core.run(200);
    const std::uint64_t firstRun = core.stats().committed;
    core.resetStats();
    EXPECT_EQ(core.stats().committed, 0u);
    core.run(1u << 24);
    ASSERT_TRUE(core.done());
    // the reset cleared counters, not the stream: the rest of the
    // program commits from where the first run stopped
    EXPECT_EQ(core.stats().committed + firstRun,
              runReference(prog).instsExecuted());
}

TEST(Core, FunctionalMatchUnderManyConfigs)
{
    const Program prog = sumLoop(300);
    for (int iqSize : {16, 40, 80}) {
        CoreConfig cfg;
        cfg.iq.numEntries = iqSize;
        cfg.iq.bankSize = 8;
        expectFunctionalMatch(prog, cfg);
    }
    CoreConfig narrow;
    narrow.fetchWidth = 2;
    narrow.dispatchWidth = 2;
    narrow.issueWidth = 2;
    narrow.commitWidth = 2;
    expectFunctionalMatch(prog, narrow);
}

/** Project popped completions onto their ROB indices. */
std::vector<int>
poppedIdxs(const std::vector<CompletionWheel::Completion> &out)
{
    std::vector<int> idxs;
    for (const auto &c : out)
        idxs.push_back(c.robIdx);
    return idxs;
}

TEST(CompletionWheel, PreservesSchedulingOrderWithinACycle)
{
    CompletionWheel w;
    w.init(12);
    std::vector<CompletionWheel::Completion> out;
    w.schedule(3, 7, 0);
    w.schedule(3, 1, 0);
    w.schedule(5, 2, 0);
    w.popDue(2, out);
    EXPECT_TRUE(out.empty());
    w.popDue(3, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{7, 1}));
    w.popDue(4, out);
    EXPECT_TRUE(out.empty());
    w.popDue(5, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{2}));
}

TEST(CompletionWheel, BeyondHorizonEventsPopOnTheRightLap)
{
    CompletionWheel w;
    w.init(4); // bit_ceil(6) = 8 slots
    ASSERT_EQ(w.numSlots(), 8);
    std::vector<CompletionWheel::Completion> out;
    // a near event and an event three laps out share slot 3
    w.schedule(3, 11, 0);
    w.schedule(3 + 8 * 3, 9, 0);
    // the near event is found by the forward scan, past the far one
    // sharing its slot
    EXPECT_EQ(w.nextDue(0), 3u);
    EXPECT_EQ(w.nextDue(3), 3u);
    w.popDue(3, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{11}))
        << "the far event must survive its slot's earlier laps";
    for (std::uint64_t c = 4; c < 27; c++) {
        // nothing due within a lap until cycle 20: the full-scan
        // fallback must still find the far event
        EXPECT_EQ(w.nextDue(c), 27u) << "cycle " << c;
        w.popDue(c, out);
        EXPECT_TRUE(out.empty()) << "cycle " << c;
    }
    w.schedule(27 + 8, 4, 0); // slot 3, like the event due at 27
    w.schedule(29, 5, 0);
    EXPECT_EQ(w.nextDue(27), 27u);
    w.popDue(27, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{9}));
    // a next-lap event in the slot the scan starts at must not hide
    // an earlier one in a later slot
    EXPECT_EQ(w.nextDue(27), 29u);
    EXPECT_EQ(w.nextDue(28), 29u);
    w.popDue(28, out);
    w.popDue(29, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{5}));
    EXPECT_EQ(w.nextDue(30), 35u);
    w.popDue(35, out);
    EXPECT_EQ(poppedIdxs(out), (std::vector<int>{4}));
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.nextDue(36), ~0ull);
}

TEST(CompletionWheel, GenerationsRoundTripForConsumerValidation)
{
    // the wheel never interprets generations — it hands each one back
    // with its event so the consumer can reject stale (squashed)
    // completions, including events of the very cycle a squash runs
    CompletionWheel w;
    w.init(8);
    std::vector<CompletionWheel::Completion> out;
    w.schedule(4, 5, 1);
    w.schedule(4, 5, 2); // same entry, re-dispatched under a new gen
    w.schedule(4, 6, 7);
    w.popDue(4, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].robIdx, 5);
    EXPECT_EQ(out[0].gen, 1u);
    EXPECT_EQ(out[1].robIdx, 5);
    EXPECT_EQ(out[1].gen, 2u);
    EXPECT_EQ(out[2].robIdx, 6);
    EXPECT_EQ(out[2].gen, 7u);
    EXPECT_TRUE(w.empty());
}

TEST(CompletionWheel, LongLatencyConfigStillSimulatesCorrectly)
{
    // a memory latency far beyond the 4096-slot cap exercises the
    // multi-lap path end-to-end: functional results must not change
    Program prog = sumLoop(64);
    CoreConfig cfg;
    cfg.mem.memLatency = 9000;
    expectFunctionalMatch(prog, cfg);
}

// ------------------------------------------------------------------
// Speculative front end (CoreConfig::specFrontEnd, DESIGN.md §14)
// ------------------------------------------------------------------

/** Data-dependent 50/50 branches on LCG noise: a mispredict mill. */
Program
noisyBranches(int iters)
{
    ProgramBuilder b("noisy", 256);
    b.newProc("main");
    b.emit(makeMovImm(4, 12345));
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, iters));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeMovImm(5, 6364136223846793005ll));
    b.emit(makeMul(4, 4, 5));
    b.emit(makeAddImm(4, 4, 1442695040888963407ll));
    b.emit(makeShr(6, 4, 62));
    b.emit(makeMovImm(7, 2));
    auto d = b.beginIf(makeBlt(6, 7, -1));
    b.emit(makeAddImm(8, 8, 1));
    b.elseBranch(d);
    b.emit(makeAddImm(8, 8, 2));
    b.joinUp(d);
    b.endLoop(loop);
    b.emit(makeMovImm(9, 8));
    b.emit(makeStore(9, 8, 0));
    b.emit(makeHalt());
    return b.build();
}

/** LCG-driven indirect jumps, calls/returns, noisy branches and
 *  stores: every mispredict flavour (direction, RAS, BTB) plus
 *  wrong-path memory traffic. */
Program
mixedMispredicts(int iters)
{
    ProgramBuilder b("mixed", 4096);
    const int leaf = b.newProc("leaf");
    b.emit(makeAddImm(9, 9, 1));
    b.emit(makeRet());
    const int mainP = b.newProc("main");
    b.emit(makeMovImm(4, 99999));
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, iters));
    b.emit(makeMovImm(10, 64)); // store base
    auto loop = b.beginLoop(1, 2);
    b.emit(makeMovImm(5, 6364136223846793005ll));
    b.emit(makeMul(4, 4, 5));
    b.emit(makeAddImm(4, 4, 1442695040888963407ll));
    b.emit(makeShr(6, 4, 62)); // 0..3
    auto sw = b.beginSwitch(6, 4);
    for (std::size_t c = 0; c < sw.cases.size(); c++) {
        b.switchTo(sw.cases[c]);
        b.emit(makeAddImm(8, 8, static_cast<std::int64_t>(c) + 1));
        b.emit(makeStore(10, 8, static_cast<std::int64_t>(c)));
        b.emit(makeLoad(11, 10, static_cast<std::int64_t>(c)));
        b.jumpTo(sw.join);
    }
    b.switchTo(sw.join);
    b.callProc(leaf);
    b.emit(makeMovImm(7, 2));
    auto d = b.beginIf(makeBlt(6, 7, -1));
    b.emit(makeAddImm(8, 8, 1));
    b.elseBranch(d);
    b.emit(makeAddImm(8, 8, 2));
    b.joinUp(d);
    b.endLoop(loop);
    b.emit(makeStore(10, 8, 100));
    b.emit(makeHalt());
    Program prog = b.build();
    prog.entryProc = mainP;
    return prog;
}

TEST(SpecFrontEnd, FunctionalMatchWithNonzeroSpeculationCounters)
{
    CoreConfig cfg;
    cfg.specFrontEnd = true;
    const Program prog = noisyBranches(2000);
    expectFunctionalMatch(prog, cfg);

    Core core(prog, cfg);
    core.run(1u << 24);
    ASSERT_TRUE(core.done());
    const auto &s = core.stats();
    EXPECT_GT(s.squashes, 100u);
    EXPECT_GT(s.wrongPathFetched, 0u);
    EXPECT_GT(s.wrongPathDispatched, 0u);
    EXPECT_GT(s.wrongPathIssued, 0u);
    EXPECT_GT(s.squashCycles, s.squashes)
        << "resolution takes more than one cycle per mispredict";
    EXPECT_GT(s.squashedInsts, 0u);
}

TEST(SpecFrontEnd, ArchitecturalCountersMatchOracleExactly)
{
    // wrong-path work must be invisible to every architectural
    // counter: the squash restores the predictor (history + RAS,
    // and the BTB is never trained on the wrong path), so the
    // correct-path prediction sequence — and with it each of these
    // counters — is the oracle's, bit for bit
    const Program prog = mixedMispredicts(600);
    CoreConfig oracleCfg;
    Core oracle(prog, oracleCfg);
    oracle.run(1u << 24);
    CoreConfig specCfg;
    specCfg.specFrontEnd = true;
    Core spec(prog, specCfg);
    spec.run(1u << 24);
    ASSERT_TRUE(oracle.done());
    ASSERT_TRUE(spec.done());
    const auto &o = oracle.stats();
    const auto &s = spec.stats();
    EXPECT_EQ(s.committed, o.committed);
    EXPECT_EQ(s.fetched, o.fetched);
    EXPECT_EQ(s.dispatched, o.dispatched);
    EXPECT_EQ(s.issued, o.issued);
    EXPECT_EQ(s.loads, o.loads);
    EXPECT_EQ(s.stores, o.stores);
    EXPECT_EQ(s.hintsApplied, o.hintsApplied);
    EXPECT_EQ(s.condBranches, o.condBranches);
    EXPECT_EQ(s.branchMispredicts, o.branchMispredicts);
    EXPECT_EQ(s.frontRedirects, o.frontRedirects);
    EXPECT_EQ(s.squashes, s.branchMispredicts)
        << "every resolved mispredict squashes exactly once";
    EXPECT_EQ(o.wrongPathFetched, 0u);
    EXPECT_EQ(o.squashes, 0u);
}

/** Squash-visible machine state, digested at each squash. */
struct SquashObs
{
    std::uint64_t cycle;
    std::uint64_t committed;
    std::uint64_t squashedInsts;
    int robEntries;
    int fqEntries;
    int iqValid;
    int lsqSize;
    int intFree;
    int fpFree;

    bool operator==(const SquashObs &) const = default;
};

/** Tick @p core until done, auditing the rename/free-list/queue
 *  invariants every cycle and recording machine state at each
 *  squash. */
std::vector<SquashObs>
runAudited(Core &core, std::uint64_t maxCycles)
{
    std::vector<SquashObs> obs;
    std::uint64_t squashes = 0;
    while (!core.done()) {
        core.tick();
        core.auditArchState();
        const auto &s = core.stats();
        if (s.squashes != squashes) {
            squashes = s.squashes;
            obs.push_back({core.cycle(), s.committed, s.squashedInsts,
                           core.robEntries(),
                           core.fetchQueueEntries(),
                           core.issueQueue().validCount(),
                           core.loadStoreQueue().size(),
                           core.intRegFile().freeRegs(),
                           core.fpRegFile().freeRegs()});
        }
        if (core.cycle() >= maxCycles)
            break;
    }
    return obs;
}

TEST(SpecFrontEnd, SquashRecoveryInvariantsHoldOverAThousandSquashes)
{
    // after every squash (randomized by LCG-driven direction, RAS and
    // BTB mispredicts) the rename maps, free lists and queues must be
    // exactly consistent — and a from-scratch replay must pass
    // through identical machine states at every squash point
    CoreConfig cfg;
    cfg.specFrontEnd = true;
    std::uint64_t totalSquashes = 0;
    for (const Program &prog :
         {noisyBranches(1200), mixedMispredicts(700)}) {
        Core first(prog, cfg);
        const auto obs1 = runAudited(first, 1u << 22);
        ASSERT_TRUE(first.done());
        totalSquashes += obs1.size();

        Core again(prog, cfg);
        const auto obs2 = runAudited(again, 1u << 22);
        ASSERT_EQ(obs1.size(), obs2.size());
        for (std::size_t i = 0; i < obs1.size(); i++) {
            EXPECT_EQ(obs1[i], obs2[i]) << "squash " << i;
        }

        // recovery is complete: the drained machine holds nothing
        EXPECT_EQ(first.robEntries(), 0);
        EXPECT_EQ(first.fetchQueueEntries(), 0);
        EXPECT_EQ(first.loadStoreQueue().size(), 0);
        EXPECT_EQ(first.issueQueue().validCount(), 0);
    }
    EXPECT_GE(totalSquashes, 1000u);
}

TEST(SpecFrontEnd, SharedTraceMatchesPrivateTrace)
{
    // a core on a shared trace and one on its own private trace must
    // stay measurement-identical through the halt with speculation
    // on: wrong-path fetch never consumes the functional stream
    const auto prog =
        std::make_shared<const Program>(noisyBranches(800));
    CoreConfig cfg;
    cfg.specFrontEnd = true;

    FuncTrace trace(prog);
    Core solo(*prog, cfg);
    solo.run(1u << 24);
    Core shared(*prog, cfg, nullptr, &trace);
    shared.run(1u << 24);
    ASSERT_TRUE(solo.done());
    ASSERT_TRUE(shared.done());
    EXPECT_TRUE(solo.stats() == shared.stats());
    EXPECT_EQ(solo.cycle(), shared.cycle());
}

// --------------------------------------------------------------------
// Idle fast-forward (DESIGN.md §12): run() may jump over provably dead
// cycles; a loop of public tick() calls never does. Both must land on
// the same counters and the same cycle.
// --------------------------------------------------------------------

TEST(FastForward, RunMatchesTickLoop)
{
    constexpr std::uint64_t insts = 20000;
    const std::vector<std::string> techniques = {
        "baseline", "noop", "extension", "improved", "abella",
        "folegnani"};
    for (const std::string &family : workloads::familyNames()) {
        sim::RunConfig cfg;
        cfg.workload.repDivisor = 40;
        const Program plain = workloads::generate(family, cfg.workload);
        for (const std::string &tech : techniques) {
            const sim::TechniqueDef *def = sim::findTechnique(tech);
            ASSERT_NE(def, nullptr) << tech;
            cfg.tech = def->tag;
            Program prog = plain;
            if (def->compilerConfig) {
                if (const auto cc = def->compilerConfig(cfg))
                    compiler::annotate(prog, *cc);
            }
            for (const bool spec : {false, true}) {
                SCOPED_TRACE(family + "/" + tech +
                             (spec ? "/spec" : "/oracle"));
                cfg.core.specFrontEnd = spec;
                std::unique_ptr<IqLimitController> ctrlRun;
                std::unique_ptr<IqLimitController> ctrlTick;
                if (def->controller) {
                    ctrlRun = def->controller(cfg);
                    ctrlTick = def->controller(cfg);
                }
                Core viaRun(prog, cfg.core, ctrlRun.get());
                viaRun.run(insts);
                Core viaTick(prog, cfg.core, ctrlTick.get());
                while (!viaTick.done() &&
                       viaTick.stats().committed < insts)
                    viaTick.tick();
                EXPECT_TRUE(viaRun.stats() == viaTick.stats());
                EXPECT_TRUE(viaRun.iqEvents() == viaTick.iqEvents());
                EXPECT_EQ(viaRun.cycle(), viaTick.cycle());
            }
        }
    }
}

} // namespace
} // namespace siq
