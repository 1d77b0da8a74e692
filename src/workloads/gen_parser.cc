/**
 * @file
 * parser profile: recursive-descent parsing over linked dictionary
 * lists. Tree recursion with register spills through a software stack,
 * short serial pointer walks and data-dependent branches on list
 * contents.
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genParser(const WorkloadParams &params)
{
    constexpr std::int64_t dictWords = 4096; // 32 KiB, L1-resident
    constexpr std::int64_t stackWords = 4096;

    ProgramBuilder b("parser", 1 << 16);
    const std::uint64_t dictBase = b.alloc(dictWords);
    const std::uint64_t stackBase = b.alloc(stackWords);

    // parse(depth in r10, cursor in r12): walk a short list, recurse
    // left always and right on a data-dependent condition
    const int parseProc = b.newProc("parse");
    {
        const int retBlock = b.newBlock();
        const int body = b.newBlock();

        b.emit(makeMovImm(11, 1));
        b.emit(makeBlt(10, 11, retBlock));
        b.fallInto(body);

        // anchor lookup, then scan the candidate word list: most of
        // the work is this loop, as in a real dictionary parser
        b.emit(makeMovImm(14, dictWords - 1));
        b.emit(makeMovImm(15, static_cast<std::int64_t>(dictBase)));
        b.emit(makeAnd(13, 12, 14));
        b.emit(makeAdd(13, 13, 15));
        b.emit(makeLoad(16, 13, 0));
        b.emit(makeMovImm(22, 0));
        b.emit(makeMovImm(23, 12));
        auto scan = b.beginLoop(22, 23);
        b.emit(makeAdd(24, 13, 22));
        b.emit(makeLoad(25, 24, 1));
        b.emit(makeXor(26, 25, 16));
        b.emit(makeAnd(26, 26, 14));
        b.emit(makeAdd(28, 28, 26));
        b.emit(makeSlt(27, 25, 16));
        b.emit(makeAdd(17, 17, 27));
        b.endLoop(scan);
        b.emit(makeXor(12, 12, 16));   // child cursor

        // left recursion
        detail::emitPush(b, 10);
        detail::emitPush(b, 12);
        b.emit(makeAddImm(10, 10, -1));
        b.callProc(parseProc);
        detail::emitPop(b, 12);
        detail::emitPop(b, 10);

        // right recursion on data-dependent low bits (~25%)
        b.emit(makeMovImm(13, 3));
        b.emit(makeAnd(13, 12, 13));
        auto d = b.beginIf(makeBeq(13, 0, -1));
        detail::emitPush(b, 10);
        detail::emitPush(b, 12);
        b.emit(makeAddImm(10, 10, -1));
        b.emit(makeAddImm(12, 12, 17));
        b.callProc(parseProc);
        detail::emitPop(b, 12);
        detail::emitPop(b, 10);
        b.elseBranch(d);
        b.emit(makeAddImm(28, 28, 1));
        b.joinUp(d);
        b.emit(makeRet());

        b.switchTo(retBlock);
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, dictBase, dictWords, dictWords - 1,
                          params.seed);
    b.emit(makeMovImm(detail::spReg,
                      static_cast<std::int64_t>(stackBase)));

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(900)));
    auto rep = b.beginLoop(21, 20);
    b.emit(makeMovImm(10, 6));         // recursion depth
    b.emit(makeMovImm(5, 2654435761ll));
    b.emit(makeMul(12, 21, 5));        // per-repetition cursor
    b.callProc(parseProc);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
