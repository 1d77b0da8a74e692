/**
 * @file
 * crafty profile: bitboard manipulation. Long logical chains
 * (and/or/xor/shift) with a popcount-style reduction, highly
 * predictable branches, small L1-resident tables and a per-iteration
 * call to an evaluation helper.
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genCrafty(const WorkloadParams &params)
{
    constexpr std::int64_t tableWords = 4096;

    ProgramBuilder b("crafty", 1 << 15);
    const std::uint64_t t1Base = b.alloc(tableWords);
    const std::uint64_t t2Base = b.alloc(tableWords);

    // evaluate(): scores the bitboard in r11, result in r12
    const int evalProc = b.newProc("evaluate");
    {
        b.emit(makeShr(12, 11, 1));
        b.emit(makeMovImm(13, 0x5555555555555555ll));
        b.emit(makeAnd(12, 12, 13));
        b.emit(makeSub(12, 11, 12));
        b.emit(makeMovImm(13, 0x3333333333333333ll));
        b.emit(makeAnd(14, 12, 13));
        b.emit(makeShr(15, 12, 2));
        b.emit(makeAnd(15, 15, 13));
        b.emit(makeAdd(12, 14, 15));
        b.emit(makeShr(14, 12, 4));
        b.emit(makeAdd(12, 12, 14));
        b.emit(makeMovImm(13, 0x0F0F0F0F0F0F0F0Fll));
        b.emit(makeAnd(12, 12, 13));
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, t1Base, tableWords, -1, params.seed, 0);
    detail::emitFillArray(b, t2Base, tableWords, -1,
                          params.seed * 31 + 7, 0);

    b.emit(makeMovImm(4, static_cast<std::int64_t>(params.seed | 1)));
    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(10)));
    auto rep = b.beginLoop(21, 20);

    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 8192));
    auto iter = b.beginLoop(1, 2);

    detail::emitLcg(b, 4, 5);
    b.emit(makeShr(6, 4, 20));
    b.emit(makeMovImm(7, tableWords - 1));
    b.emit(makeAnd(6, 6, 7));          // idx1
    b.emit(makeShr(8, 4, 40));
    b.emit(makeAnd(8, 8, 7));          // idx2
    b.emit(makeMovImm(9, static_cast<std::int64_t>(t1Base)));
    b.emit(makeAdd(9, 9, 6));
    b.emit(makeLoad(10, 9, 0));        // b1
    b.emit(makeMovImm(9, static_cast<std::int64_t>(t2Base)));
    b.emit(makeAdd(9, 9, 8));
    b.emit(makeLoad(16, 9, 0));        // b2

    // bitboard combination chains
    b.emit(makeShl(17, 16, 9));
    b.emit(makeOr(18, 10, 17));
    b.emit(makeXor(11, 18, 16));
    b.emit(makeShr(19, 11, 7));
    b.emit(makeXor(11, 11, 19));

    // full evaluation only on quiescent positions (1 in 16): highly
    // predictable branch, and the call leaves the hot path lean
    b.emit(makeMovImm(13, 15));
    b.emit(makeAnd(13, 11, 13));
    auto d = b.beginIf(makeBne(13, 0, -1));
    b.emit(makeShr(14, 11, 3));
    b.emit(makeXor(28, 28, 14));
    b.emit(makeAddImm(28, 28, 2));
    b.elseBranch(d);
    b.callProc(evalProc);              // popcount-style score in r12
    b.emit(makeAdd(28, 28, 12));
    b.emit(makeStore(9, 28, 0));       // rare table update
    b.joinUp(d);

    b.endLoop(iter);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
