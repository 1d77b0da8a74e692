/**
 * @file
 * perlbmk profile: bytecode interpreter. A 16-way indirect dispatch
 * over random opcodes (hard for the BTB's last-target prediction),
 * operand-stack traffic through memory, and helper procedures — one of
 * them flagged as a library routine to exercise the paper's §4.4 rule
 * (library calls force the IQ to its maximum).
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genPerlbmk(const WorkloadParams &params)
{
    constexpr std::int64_t codeWords = 8192;
    constexpr int numOps = 16;
    constexpr std::int64_t stackWords = 8192;

    ProgramBuilder b("perlbmk", 1 << 16);
    const std::uint64_t codeBase = b.alloc(codeWords);
    const std::uint64_t stackBase = b.alloc(stackWords);

    // helper: string-hash-ish math on r11 -> r12
    const int helperProc = b.newProc("sv_magic");
    {
        b.emit(makeMovImm(13, 1099511628211ll));
        b.emit(makeMul(12, 11, 13));
        b.emit(makeShr(14, 12, 7));
        b.emit(makeXor(12, 12, 14));
        b.emit(makeRet());
    }

    // library allocation stub (paper §4.4: IQ maxed before the call)
    const int allocProc = b.newProc("perl_malloc", /*isLibrary=*/true);
    {
        b.emit(makeAddImm(24, 24, 16)); // bump a fake heap pointer
        b.emit(makeOr(12, 24, 0));
        b.emit(makeRet());
    }

    // interpreter: runs the whole bytecode buffer once
    const int interpProc = b.newProc("interp");
    {
        b.emit(makeMovImm(15, 0));             // pc
        b.emit(makeMovImm(16, codeWords));
        b.emit(makeMovImm(17, static_cast<std::int64_t>(codeBase)));
        auto loop = b.beginLoop(15, 16);
        b.emit(makeAdd(18, 17, 15));
        b.emit(makeLoad(10, 18, 0));           // opcode
        auto sw = b.beginSwitch(10, numOps);
        for (int c = 0; c < numOps; c++) {
            b.switchTo(sw.cases[static_cast<std::size_t>(c)]);
            switch (c % 5) {
              case 0: // push constant
                b.emit(makeMovImm(19, c * 3 + 1));
                detail::emitPush(b, 19);
                break;
              case 1: // pop two, add, push
                detail::emitPop(b, 19);
                detail::emitPop(b, 22);
                b.emit(makeAdd(19, 19, 22));
                detail::emitPush(b, 19);
                break;
              case 2: // arithmetic on the accumulator
                b.emit(makeAddImm(28, 28, c));
                b.emit(makeXor(28, 28, 10));
                break;
              case 3: // helper call
                b.emit(makeOr(11, 28, 0));
                b.callProc(helperProc);
                b.emit(makeAdd(28, 28, 12));
                break;
              default: // library call
                b.callProc(allocProc);
                b.emit(makeAdd(28, 28, 12));
                break;
            }
            b.jumpTo(sw.join);
        }
        b.switchTo(sw.join);
        // keep the operand stack from drifting out of its region
        b.emit(makeMovImm(19, static_cast<std::int64_t>(
            stackBase + stackWords / 2)));
        b.emit(makeMovImm(22, 1023));
        b.emit(makeAnd(23, detail::spReg, 22));
        b.emit(makeAdd(detail::spReg, 19, 23));
        b.endLoop(loop);
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, codeBase, codeWords, numOps - 1,
                          params.seed);
    b.emit(makeMovImm(detail::spReg, static_cast<std::int64_t>(
        stackBase + stackWords / 2)));
    b.emit(makeMovImm(24, 0));

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(14)));
    auto rep = b.beginLoop(21, 20);
    b.callProc(interpProc);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
