/**
 * @file
 * vortex profile: object-database transactions. The defining property
 * (per the paper) is functional-unit contention *across procedure
 * boundaries*: tiny accessor procedures do multiply-heavy address
 * arithmetic while their callers are also multiplying, so an analysis
 * that stops at the call boundary under-provisions the IQ. vortex has
 * the worst IPC loss under the NOOP scheme and improves dramatically
 * under the Improved scheme's inter-procedural contention analysis.
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genVortex(const WorkloadParams &params)
{
    constexpr std::int64_t objWords = 65536; // 512 KiB object heap
    constexpr int numAccessors = 8;

    ProgramBuilder b("vortex", 1 << 17);
    const std::uint64_t objBase = b.alloc(objWords);

    // accessors: get_field_k(handle r11) -> r12; the hash-modulo
    // divide occupies an IntMul unit for its full latency, so callers
    // whose own multiplies follow the return contend with it — the
    // paper's cross-procedure FU contention
    std::vector<int> accessors;
    for (int k = 0; k < numAccessors; k++) {
        const int proc = b.newProc("get_field" + std::to_string(k));
        accessors.push_back(proc);
        b.emit(makeMovImm(13, 16 + k * 8));
        b.emit(makeMul(14, 11, 13));       // slot = handle * objSize
        b.emit(makeMovImm(15, objWords - 1));
        b.emit(makeAnd(14, 14, 15));
        b.emit(makeMovImm(16, static_cast<std::int64_t>(objBase)));
        b.emit(makeAdd(14, 14, 16));
        b.emit(makeLoad(12, 14, k % 4));
        b.emit(makeMovImm(15, 97 + k));
        b.emit(makeDiv(18, 11, 15));       // chain = handle / prime
        b.emit(makeMovImm(13, 2246822519ll));
        b.emit(makeMul(12, 12, 13));       // field checksum
        b.emit(makeAdd(12, 12, 18));
        b.emit(makeRet());
    }

    // commit: marked library (paper §4.4)
    const int commitProc = b.newProc("db_commit", /*isLibrary=*/true);
    {
        b.emit(makeMovImm(13, static_cast<std::int64_t>(objBase)));
        b.emit(makeMovImm(14, objWords - 1));
        b.emit(makeAnd(15, 28, 14));
        b.emit(makeAdd(13, 13, 15));
        b.emit(makeStore(13, 28, 0));
        b.emit(makeRet());
    }

    const int mainProc = b.newProc("main");
    detail::emitFillArray(b, objBase, objWords, 0x3FFFFFll,
                          params.seed);

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(900)));
    auto rep = b.beginLoop(21, 20);

    // one "transaction": 24 object touches, each bracketed by caller-
    // side multiplies that contend with the accessor's multiplies
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 24));
    auto txn = b.beginLoop(1, 2);
    b.emit(makeMovImm(5, 40503ll));
    b.emit(makeMul(11, 21, 5));        // caller-side mul
    b.emit(makeAdd(11, 11, 1));
    b.emit(makeMovImm(6, 65599ll));
    b.emit(makeMul(7, 11, 6));         // caller-side mul (dead-ish)
    b.callProc(accessors[0]);
    b.emit(makeAdd(26, 12, 7));
    b.emit(makeMul(27, 26, 6));        // caller-side mul after return
    b.callProc(accessors[1]);
    b.emit(makeAdd(26, 26, 12));
    b.callProc(accessors[2]);
    b.emit(makeXor(26, 26, 12));
    b.emit(makeMul(27, 27, 26));
    b.callProc(accessors[3]);
    b.emit(makeAdd(28, 28, 12));
    b.emit(makeAdd(28, 28, 27));
    // rotate through the remaining accessors by transaction parity
    b.emit(makeMovImm(8, 3));
    b.emit(makeAnd(8, 1, 8));
    auto d = b.beginIf(makeBne(8, 0, -1));
    b.callProc(accessors[4]);
    b.emit(makeAdd(28, 28, 12));
    b.callProc(accessors[5]);
    b.emit(makeAdd(28, 28, 12));
    b.elseBranch(d);
    b.callProc(accessors[6]);
    b.emit(makeAdd(28, 28, 12));
    b.callProc(accessors[7]);
    b.emit(makeSub(28, 28, 12));
    b.joinUp(d);
    b.endLoop(txn);

    // commit via the library stub every transaction batch
    b.callProc(commitProc);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());

    return b.build(mainProc);
}

} // namespace siq::workloads
