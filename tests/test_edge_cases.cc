/**
 * @file
 * Edge cases across modules: interpreter corner semantics, indirect
 * jump prediction economics, hint interactions at region boundaries
 * and tag placement for loop entries.
 */

#include <gtest/gtest.h>

#include "compiler/pass.hh"
#include "cpu/core.hh"
#include "ir/cfg.hh"
#include "ir/exec.hh"
#include "isa/hint.hh"
#include "workloads/builder.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

TEST(ExecEdge, DivideByZeroYieldsZero)
{
    ProgramBuilder b("div0", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 42));
    b.emit(makeMovImm(2, 0));
    b.emit(makeDiv(3, 1, 2));
    b.emit(makeFMovImm(fpRegBase + 1, 5));
    b.emit(makeFMovImm(fpRegBase + 2, 0));
    b.emit(makeFDiv(fpRegBase + 3, fpRegBase + 1, fpRegBase + 2));
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(3), 0);
    EXPECT_EQ(ctx.fpReg(fpRegBase + 3), 0.0);
}

TEST(ExecEdge, ReturnFromEntryProcedureHalts)
{
    ProgramBuilder b("ret", 64);
    b.newProc("main");
    b.emit(makeAddImm(1, 1, 1));
    b.emit(makeRet());
    const Program prog = b.build();
    ExecContext ctx(prog);
    ctx.step();
    const auto res = ctx.step();
    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(ctx.halted());
}

TEST(ExecEdge, NegativeIndirectIndexWraps)
{
    ProgramBuilder b("neg", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, -1)); // wraps to the last case
    auto sw = b.beginSwitch(1, 3);
    for (int c = 0; c < 3; c++) {
        b.switchTo(sw.cases[static_cast<std::size_t>(c)]);
        b.emit(makeMovImm(9, c));
        b.jumpTo(sw.join);
    }
    b.switchTo(sw.join);
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.intReg(9), 2);
}

TEST(ExecEdge, FpLoadStoreRoundTripsBits)
{
    ProgramBuilder b("fp", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 16));
    b.emit(makeFMovImm(fpRegBase + 1, 7));
    b.emit(makeFStore(1, fpRegBase + 1, 0));
    b.emit(makeFLoad(fpRegBase + 2, 1, 0));
    b.emit(makeFAdd(fpRegBase + 3, fpRegBase + 1, fpRegBase + 2));
    b.emit(makeHalt());
    const Program prog = b.build();
    ExecContext ctx(prog);
    while (!ctx.halted())
        ctx.step();
    EXPECT_EQ(ctx.fpReg(fpRegBase + 2), 7.0);
    EXPECT_EQ(ctx.fpReg(fpRegBase + 3), 14.0);
}

TEST(CoreEdge, IndirectJumpsWithVaryingTargetsMispredict)
{
    // alternating switch targets defeat the BTB's last-target scheme
    auto build = [](bool alternating) {
        ProgramBuilder b("ijmp", 256);
        b.newProc("main");
        b.emit(makeMovImm(1, 0));
        b.emit(makeMovImm(2, 2000));
        auto loop = b.beginLoop(1, 2);
        if (alternating) {
            b.emit(makeMovImm(3, 1));
            b.emit(makeAnd(4, 1, 3));
        } else {
            b.emit(makeMovImm(4, 0));
        }
        auto sw = b.beginSwitch(4, 2);
        for (int c = 0; c < 2; c++) {
            b.switchTo(sw.cases[static_cast<std::size_t>(c)]);
            b.emit(makeAddImm(9, 9, c + 1));
            b.jumpTo(sw.join);
        }
        b.switchTo(sw.join);
        b.endLoop(loop);
        b.emit(makeHalt());
        return b.build();
    };
    const Program fixed = build(false);
    Core cFixed(fixed, CoreConfig{});
    cFixed.run(1u << 24);
    const Program alt = build(true);
    Core cAlt(alt, CoreConfig{});
    cAlt.run(1u << 24);
    EXPECT_GT(cAlt.stats().branchMispredicts,
              cFixed.stats().branchMispredicts + 500);
    EXPECT_LT(cAlt.stats().ipc(), cFixed.stats().ipc());
}

TEST(CoreEdge, BackToBackHintsLastOneWins)
{
    ProgramBuilder b("hh", 64);
    b.newProc("main");
    b.emit(makeHint(40));
    b.emit(makeHint(7));
    b.emit(makeAddImm(1, 1, 1));
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, CoreConfig{});
    core.run(1u << 20);
    EXPECT_EQ(core.issueQueue().currentRange(), 7);
    EXPECT_EQ(core.stats().hintsApplied, 2u);
}

TEST(CoreEdge, LsqFullStallsDispatchNotCorrectness)
{
    CoreConfig cfg;
    cfg.lsq.numEntries = 2;
    ProgramBuilder b("lsq", 256);
    b.newProc("main");
    b.emit(makeMovImm(1, 32));
    for (int i = 0; i < 16; i++)
        b.emit(makeStore(1, 1, i));
    for (int i = 0; i < 16; i++)
        b.emit(makeLoad(4, 1, i));
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, cfg);
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_GT(core.stats().dispatchStallLsq, 0u);
    EXPECT_EQ(core.stats().committed, 34u);
    ExecContext ref(prog);
    while (!ref.halted())
        ref.step();
    EXPECT_EQ(ref.intReg(4), 32);
}

TEST(CoreEdge, TinyRegisterFileStallsRename)
{
    CoreConfig cfg;
    cfg.intRegs.numPhys = 40; // 8 rename registers only
    ProgramBuilder b("regs", 64);
    b.newProc("main");
    // a single renamed destination inside a hot loop: each rename
    // only returns its previous physical register at commit, so once
    // the icache is warm an 8-entry free list cannot keep up with
    // 8-wide dispatch
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(3, 40));
    auto loop = b.beginLoop(1, 3);
    for (int i = 0; i < 16; i++)
        b.emit(makeAddImm(2, 4, 1));
    b.endLoop(loop);
    b.emit(makeHalt());
    const Program prog = b.build();
    Core core(prog, cfg);
    core.run(1u << 20);
    ASSERT_TRUE(core.done());
    EXPECT_GT(core.stats().dispatchStallRegs, 0u);
}

TEST(CompilerEdge, LoopEntryTagRidesThePredecessor)
{
    ProgramBuilder b("looptag", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 50));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeMul(3, 3, 1));
    b.endLoop(loop);
    b.emit(makeHalt());
    Program prog = b.build();
    compiler::CompilerConfig cfg;
    cfg.scheme = compiler::HintScheme::Tag;
    cfg.elideRedundant = false;
    compiler::annotate(prog, cfg);
    // the loop-entry hint must be tagged on the block that falls
    // into the header, not on any block inside the loop (a hint in
    // the loop would reset new_head every iteration)
    const auto loops = findNaturalLoops(prog.procs[0]);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_NE(prog.procs[0].blocks[0].insts.back().tagHint, 0);
    for (int blk : loops[0].blocks)
        for (const auto &inst : prog.procs[0].blocks[blk].insts)
            EXPECT_NE(inst.op, Opcode::Hint)
                << "no hint NOOP may live inside the loop region";
}

TEST(CompilerEdge, AnnotateTwiceIsRejectedGracefully)
{
    // annotating an already-annotated program must not crash; hint
    // NOOPs are FuClass::None and analysis treats them as free
    Program prog = workloads::generate("gzip", {});
    compiler::CompilerConfig cfg;
    compiler::annotate(prog, cfg);
    const auto second = compiler::annotate(prog, cfg);
    EXPECT_GT(second.blocksAnalyzed, 0u);
}

TEST(CompilerEdge, HintValuesFitTheBinaryEncoding)
{
    Program prog = workloads::generate("perlbmk", {});
    compiler::CompilerConfig cfg;
    compiler::annotate(prog, cfg);
    for (const auto &proc : prog.procs) {
        for (const auto &block : proc.blocks) {
            for (const auto &inst : block.insts) {
                if (inst.op == Opcode::Hint) {
                    EXPECT_LE(inst.hintValue,
                              (1u << hintPayloadBits) - 1);
                }
            }
        }
    }
}

} // namespace
} // namespace siq
