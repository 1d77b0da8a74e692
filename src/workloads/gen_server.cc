/**
 * @file
 * server family: OLTP-style hash-index probing. Each probe draws a
 * key from an in-register LCG, hashes it into a large node table and
 * walks `probeDepth` pointer hops; consecutive probes are mutually
 * independent (memory-level parallelism across short dependent
 * chains, unlike mcf's single serial chase). The walked payloads
 * feed ~50/50 data-dependent branches, so branch prediction is hard;
 * the `footprintLog2`-word table busts the cache hierarchy; and
 * `hotPct` redirects a slice of the probes to a cache-resident hot
 * subset, modelling skewed (Zipf-ish) key popularity.
 *
 * Parameters (family.cc): footprintLog2, probeDepth, hotPct.
 */

#include "workloads/detail.hh"
#include "workloads/family.hh"

namespace siq::workloads
{

Program
genServer(const WorkloadParams &params, const FamilyParams &fp)
{
    const std::int64_t footprintLog2 = fp.at("footprintLog2"); // 14..21
    const std::int64_t probeDepth = fp.at("probeDepth");       // 1..8
    const std::int64_t hotPct = fp.at("hotPct");               // 0..90

    // 4 words per node: [next index, payload, key, pad]
    const std::int64_t numNodes = std::int64_t{1} << (footprintLog2 - 2);
    const std::uint64_t tableWords =
        static_cast<std::uint64_t>(4 * numNodes);
    ProgramBuilder b("server", 64 + tableWords + 1024);
    const std::uint64_t nodeBase = b.alloc(tableWords);

    b.newProc("main");

    // initial image: next pointers are seed-dependent noise (a random
    // functional graph — probes walk a few hops, not full cycles),
    // payloads are 16-bit noise for the comparison branches
    {
        b.reserveMem(2 * numNodes);
        std::uint64_t state = params.seed | 1;
        for (std::int64_t i = 0; i < numNodes; i++) {
            const auto addr =
                nodeBase + static_cast<std::uint64_t>(4 * i);
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            b.initMem(addr, static_cast<std::int64_t>(
                                (state >> 24) &
                                static_cast<std::uint64_t>(numNodes - 1)));
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            b.initMem(addr + 1,
                      static_cast<std::int64_t>(state >> 48));
        }
    }

    b.emit(makeMovImm(6, static_cast<std::int64_t>(nodeBase)));
    b.emit(makeMovImm(17, numNodes - 1)); // index mask
    // hot subset: numNodes/64 nodes ≈ footprint/64, cache-resident
    b.emit(makeMovImm(18, numNodes / 64 - 1)); // hot mask
    b.emit(makeMovImm(19, (hotPct << 7) / 100)); // threshold of 128
    b.emit(makeMovImm(7, static_cast<std::int64_t>(
                             (params.seed >> 1) | 1))); // key state
    b.emit(makeMovImm(28, 0)); // checksum

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(20)));
    auto rep = b.beginLoop(21, 20);

    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 4096)); // probes per pass
    auto probe = b.beginLoop(1, 2);

    // next key (in-register LCG) and its hash-index
    detail::emitLcg(b, 7, 9);
    b.emit(makeShr(10, 7, 33));
    b.emit(makeAnd(10, 10, 17));

    if (hotPct > 0) {
        // skewed popularity: redirect (key noise < threshold) probes
        // into the hot subset — a data-dependent, biased branch
        b.emit(makeShr(11, 7, 8));
        b.emit(makeMovImm(12, 127));
        b.emit(makeAnd(11, 11, 12));
        auto hot = b.beginIf(makeBlt(11, 19, -1));
        b.emit(makeAnd(10, 10, 18));
        b.elseBranch(hot);
        b.emit(makeNop());
        b.joinUp(hot);
    }

    // walk probeDepth hops: short dependent chain, but the *next*
    // probe's hash does not depend on this walk, so independent
    // probes overlap in the machine (server-style MLP)
    for (std::int64_t d = 0; d < probeDepth; d++) {
        b.emit(makeShl(3, 10, 2));
        b.emit(makeAdd(3, 3, 6));
        b.emit(makeLoad(10, 3, 0));  // next node index
        b.emit(makeLoad(13, 3, 1));  // payload
        b.emit(makeAdd(28, 28, 13));
    }

    // ~50/50 payload comparison: the hard-to-predict branch per probe
    b.emit(makeMovImm(14, 32768));
    auto d = b.beginIf(makeBlt(13, 14, -1));
    b.emit(makeAddImm(28, 28, 1));
    b.elseBranch(d);
    b.emit(makeXor(28, 28, 13));
    b.joinUp(d);

    b.endLoop(probe);
    b.endLoop(rep);

    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());
    return b.build();
}

} // namespace siq::workloads
