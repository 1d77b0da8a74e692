/**
 * @file
 * mcf profile: network-simplex pointer chasing. A serial load-to-load
 * address dependence walks a strided cycle through a working set four
 * times the L2 capacity, so most hops miss in L2. Baseline IPC is low
 * and almost insensitive to IQ size — which is why mcf shows the
 * smallest IPC loss in the paper while still saving much power.
 */

#include "workloads/detail.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{

Program
genMcf(const WorkloadParams &params)
{
    constexpr std::int64_t numNodes = 65536; // 4 words each => 2 MiB
    constexpr std::int64_t stride = 28657;   // odd => full cycle

    ProgramBuilder b("mcf", 1 << 19);
    const std::uint64_t nodeBase = b.alloc(4 * numNodes);

    b.newProc("main");

    // initial image: next pointers form one big strided cycle;
    // node costs are noise (host-side — the paper skips init code)
    {
        b.reserveMem(2 * numNodes);
        std::uint64_t state = params.seed | 1;
        for (std::int64_t i = 0; i < numNodes; i++) {
            const std::int64_t nextNode =
                (i + stride) & (numNodes - 1);
            const auto addr =
                nodeBase + static_cast<std::uint64_t>(4 * i);
            b.initMem(addr, nextNode);
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            b.initMem(addr + 1,
                      static_cast<std::int64_t>(state >> 48));
        }
    }
    b.emit(makeMovImm(6, static_cast<std::int64_t>(nodeBase)));

    // kernel: chase the cycle, accumulate costs, prune negatives
    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(16)));
    auto rep = b.beginLoop(21, 20);

    b.emit(makeMovImm(11, 1));         // current node
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 12288));      // hops per pass
    auto hop = b.beginLoop(1, 2);
    b.emit(makeShl(3, 11, 2));
    b.emit(makeAdd(3, 3, 6));
    b.emit(makeLoad(11, 3, 0));        // serial: next node
    b.emit(makeLoad(12, 3, 1));        // cost
    b.emit(makeAdd(28, 28, 12));
    b.emit(makeMovImm(13, 40000));
    auto d = b.beginIf(makeBlt(12, 13, -1)); // ~60/40 data-dependent
    b.emit(makeAddImm(28, 28, 1));
    b.elseBranch(d);
    b.emit(makeSub(28, 28, 12));
    b.emit(makeStore(3, 28, 2));       // occasional writeback
    b.joinUp(d);
    b.endLoop(hop);

    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());
    return b.build();
}

} // namespace siq::workloads
