/**
 * @file
 * bzip2 profile: block sorting. An insertion-style sort pass with
 * data-dependent compare branches, plus a hot rank() helper called
 * from inside the inner loop whose multiplies contend with the
 * caller's — the second Improved-scheme target in the paper (bzip2
 * "previously had the highest IPC loss showing that inter-procedural
 * functional unit contention was significant").
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genBzip2(const WorkloadParams &params)
{
    constexpr std::int64_t blockWords = 4096; // 32 KiB, L1-resident

    ProgramBuilder b("bzip2", 1 << 17);
    const std::uint64_t blockBase = b.alloc(blockWords);

    // rank(v in r11) -> r12: key ranking whose bucket divide holds an
    // IntMul unit across the return — the inter-procedural contention
    // the paper's Improved analysis recovers for bzip2
    const int rankProc = b.newProc("rank");
    {
        b.emit(makeMovImm(13, 2654435761ll));
        b.emit(makeMul(12, 11, 13));
        b.emit(makeMovImm(14, 255));
        b.emit(makeDiv(15, 12, 14));       // bucket divide
        b.emit(makeShr(14, 12, 16));
        b.emit(makeMovImm(13, 40503ll));
        b.emit(makeMul(14, 14, 13));
        b.emit(makeXor(12, 12, 14));
        b.emit(makeAdd(12, 12, 15));
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, blockBase, blockWords, 0xFFFFFll,
                          params.seed);

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(11)));
    auto rep = b.beginLoop(21, 20);

    // one sorting pass over a sliding window of the block
    b.emit(makeMovImm(1, 1));
    b.emit(makeMovImm(2, blockWords - 1));
    b.emit(makeMovImm(6, static_cast<std::int64_t>(blockBase)));
    auto pass = b.beginLoop(1, 2);

    b.emit(makeAdd(3, 6, 1));
    b.emit(makeLoad(7, 3, 0));         // key = block[i]
    b.emit(makeLoad(8, 3, -1));        // prev = block[i-1]

    // caller-side multiply and bucket divide feeding the comparison
    b.emit(makeMovImm(9, 65599ll));
    b.emit(makeMul(10, 7, 9));
    b.emit(makeMovImm(9, 127));
    b.emit(makeDiv(9, 8, 9));

    // rank every other key — hot enough that
    // its divide tail dominates bzip2's IPC loss until the Improved
    // scheme provisions across the boundary
    b.emit(makeMovImm(11, 1));
    b.emit(makeAnd(11, 1, 11));
    auto dCall = b.beginIf(makeBne(11, 0, -1));
    b.emit(makeOr(12, 7, 0));          // unranked: key passes through
    b.elseBranch(dCall);
    b.emit(makeOr(11, 7, 0));
    b.callProc(rankProc);              // hot callee with divides
    b.joinUp(dCall);

    // data-dependent compare-and-swap (~50/50 on noise); only the
    // keep-path consumes the rank, so half the iterations can run
    // ahead of the callee's tail
    auto d = b.beginIf(makeBlt(7, 8, -1));
    b.emit(makeStore(3, 8, 0));        // swap
    b.emit(makeStore(3, 7, -1));
    b.emit(makeAddImm(28, 28, 1));
    b.elseBranch(d);
    b.emit(makeAdd(10, 10, 12));
    b.emit(makeAdd(10, 10, 9));
    b.emit(makeAdd(28, 28, 10));
    b.joinUp(d);

    b.endLoop(pass);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
