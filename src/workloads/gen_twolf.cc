/**
 * @file
 * twolf profile: standard-cell placement. Mixed integer/floating-point
 * cost evaluation over a cell array, occasional FP divides, moderate
 * helper-call density and a mid-sized working set.
 */

#include <bit>

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genTwolf(const WorkloadParams &params)
{
    constexpr std::int64_t numCells = 1024; // 4 words each, L1-resident

    ProgramBuilder b("twolf", 1 << 16);
    const std::uint64_t cellBase = b.alloc(4 * numCells);
    const std::uint64_t penaltyBase = b.alloc(numCells);

    for (std::int64_t i = 0; i < numCells; i += 8) {
        const double v = 0.5 + static_cast<double>(i & 63);
        b.initMem(penaltyBase + static_cast<std::uint64_t>(i),
                  std::bit_cast<std::int64_t>(v));
    }

    // overlap(r11, r13) -> r12: integer overlap of two cells
    const int overlapProc = b.newProc("overlap");
    {
        b.emit(makeSub(12, 11, 13));
        auto d = b.beginIf(makeBge(12, 0, -1));
        b.elseBranch(d);
        b.emit(makeSub(12, 0, 12));
        b.joinUp(d);
        b.emit(makeMovImm(14, 64));
        b.emit(makeSub(12, 14, 12));
        auto d2 = b.beginIf(makeBge(12, 0, -1));
        b.elseBranch(d2);
        b.emit(makeMovImm(12, 0));
        b.joinUp(d2);
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, cellBase, 4 * numCells, 0xFFFF,
                          params.seed);

    constexpr int fCost = fpRegBase + 1;
    constexpr int fTmp = fpRegBase + 2;
    constexpr int fNorm = fpRegBase + 3;
    b.emit(makeFMovImm(fCost, 0));
    b.emit(makeFMovImm(fNorm, 7));

    b.emit(makeMovImm(4, static_cast<std::int64_t>(params.seed | 1)));
    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(16)));
    auto rep = b.beginLoop(21, 20);

    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 6144));
    auto iter = b.beginLoop(1, 2);

    // pick two pseudo-random cells
    detail::emitLcg(b, 4, 5);
    b.emit(makeMovImm(7, numCells - 1));
    b.emit(makeShr(6, 4, 17));
    b.emit(makeAnd(6, 6, 7));
    b.emit(makeShr(8, 4, 39));
    b.emit(makeAnd(8, 8, 7));

    b.emit(makeMovImm(9, static_cast<std::int64_t>(cellBase)));
    b.emit(makeShl(10, 6, 2));
    b.emit(makeAdd(10, 10, 9));
    b.emit(makeLoad(11, 10, 0));       // x of cell a
    b.emit(makeShl(14, 8, 2));
    b.emit(makeAdd(14, 14, 9));
    b.emit(makeLoad(13, 14, 0));       // x of cell b

    b.callProc(overlapProc);
    b.emit(makeAdd(28, 28, 12));

    // fp cost: cost += penalty[a] * norm (divide every 32nd)
    b.emit(makeMovImm(15, static_cast<std::int64_t>(penaltyBase)));
    b.emit(makeMovImm(16, ~7ll));
    b.emit(makeAnd(17, 6, 16));
    b.emit(makeAdd(15, 15, 17));
    b.emit(makeFLoad(fTmp, 15, 0));
    b.emit(makeFMul(fTmp, fTmp, fNorm));
    b.emit(makeFAdd(fCost, fCost, fTmp));
    b.emit(makeMovImm(18, 31));
    b.emit(makeAnd(18, 1, 18));
    auto dDiv = b.beginIf(makeBne(18, 0, -1));
    b.elseBranch(dDiv);
    b.emit(makeFDiv(fCost, fCost, fNorm));
    b.joinUp(dDiv);

    // accept/reject move (~70% accept by data construction)
    b.emit(makeMovImm(19, 48));
    auto dAcc = b.beginIf(makeBlt(12, 19, -1));
    b.emit(makeStore(10, 13, 1));      // swap y coordinates
    b.emit(makeStore(14, 11, 1));
    b.elseBranch(dAcc);
    b.emit(makeAddImm(28, 28, 3));
    b.joinUp(dAcc);

    b.endLoop(iter);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
