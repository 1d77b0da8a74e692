/**
 * @file
 * gcc profile: many tiny procedures with dense control flow and a wide
 * computed-goto dispatcher — the bison-generated switch the paper
 * blames for gcc's long compile time and conservative analysis. The
 * static program is by far the largest of the suite (for Table 2) and
 * the control-flow joins force the compiler pass onto its conservative
 * paths.
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genGcc(const WorkloadParams &params)
{
    constexpr std::int64_t numStmts = 16384;
    constexpr int numLeaves = 24;

    ProgramBuilder b("gcc", 1 << 16);
    const std::uint64_t stmtBase = b.alloc(numStmts);
    const std::uint64_t globalBase = b.alloc(4096);

    Rng rng(params.seed ^ 0x9cc);

    // --- leaf procedures -------------------------------------------------
    // each: a chain of small if/else diamonds over registers r11..r19
    std::vector<int> leaves;
    for (int l = 0; l < numLeaves; l++) {
        const int proc = b.newProc("leaf" + std::to_string(l));
        leaves.push_back(proc);
        const int diamonds = static_cast<int>(rng.range(2, 4));
        b.emit(makeAddImm(11, 10, l));
        b.emit(makeMovImm(12, static_cast<std::int64_t>(
            rng.range(1, 255))));
        for (int d = 0; d < diamonds; d++) {
            b.emit(makeAnd(13, 11, 12));
            b.emit(makeMovImm(14, static_cast<std::int64_t>(
                rng.range(0, 7))));
            auto dia = b.beginIf(makeBlt(13, 14, -1));
            b.emit(makeXor(15, 11, 12));
            b.emit(makeAddImm(11, 15, 3));
            b.elseBranch(dia);
            b.emit(makeShr(16, 11, 1));
            b.emit(makeSub(11, 16, 14));
            b.joinUp(dia);
        }
        // touch a global occasionally to create memory traffic
        b.emit(makeMovImm(17, static_cast<std::int64_t>(globalBase)));
        b.emit(makeMovImm(18, 4095));
        b.emit(makeAnd(19, 11, 18));
        b.emit(makeAdd(17, 17, 19));
        b.emit(makeStore(17, 11, 0));
        b.emit(makeRet());
    }

    // --- dispatcher: the big switch --------------------------------------
    const int dispatcher = b.newProc("dispatch");
    {
        auto sw = b.beginSwitch(10, numLeaves);
        for (int c = 0; c < numLeaves; c++) {
            b.switchTo(sw.cases[static_cast<std::size_t>(c)]);
            b.callProc(leaves[static_cast<std::size_t>(c)]);
            // a second call on some paths (like chained semantic
            // routines in the bison skeleton)
            if (c % 3 == 0)
                b.callProc(leaves[static_cast<std::size_t>(
                    (c + 7) % numLeaves)]);
            b.jumpTo(sw.join);
        }
        b.switchTo(sw.join);
        b.emit(makeRet());
    }

    // --- main -------------------------------------------------------------
    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, stmtBase, numStmts, numLeaves - 1,
                          params.seed);

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(5)));
    auto rep = b.beginLoop(21, 20);

    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, numStmts));
    b.emit(makeMovImm(6, static_cast<std::int64_t>(stmtBase)));
    auto stmt = b.beginLoop(1, 2);
    b.emit(makeAdd(3, 6, 1));
    b.emit(makeLoad(10, 3, 0));  // op for the dispatcher
    b.callProc(dispatcher);
    b.emit(makeAdd(28, 28, 11)); // accumulate leaf results
    b.endLoop(stmt);

    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
