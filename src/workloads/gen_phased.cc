/**
 * @file
 * phased family: composable alternation of a high-ILP streaming
 * phase and a serial memory-bound phase, with a configurable period
 * and duty cycle. The ILP phase runs eight independent accumulator
 * streams over a cache-resident array (instructions issue almost as
 * fast as they dispatch — low IQ occupancy, small IQ suffices); the
 * memory phase is an mcf-style serial chase through an L2-busting
 * cycle (dependents pile up behind outstanding misses — high IQ
 * occupancy). The alternation is exactly the time-varying IQ demand
 * that software-directed resizing targets and a fixed SPECint-style
 * profile cannot express; the per-phase occupancy split is asserted
 * by test_family.cc via the IQ occupancy counters.
 *
 * Parameters (family.cc): period (iterations per phase), duty
 * (percent of the period spent in the ILP phase), memStride (chase
 * cycle stride; odd values give one full cycle).
 */

#include "workloads/detail.hh"
#include "workloads/family.hh"

namespace siq::workloads
{

Program
genPhased(const WorkloadParams &params, const FamilyParams &fp)
{
    const std::int64_t period = fp.at("period");       // 64..1M
    const std::int64_t duty = fp.at("duty");           // 5..95
    const std::int64_t memStride = fp.at("memStride"); // 1..65535

    std::int64_t ilpIters = period * duty / 100;
    if (ilpIters < 1)
        ilpIters = 1;
    std::int64_t memIters = period - ilpIters;
    if (memIters < 1)
        memIters = 1;

    constexpr std::int64_t chaseWords = 1 << 17; // 1 MiB, 2x L2
    constexpr std::int64_t streamWords = 4096;   // cache-resident
    ProgramBuilder b("phased", 64 + chaseWords + streamWords + 1024);
    const std::uint64_t chaseBase =
        b.alloc(static_cast<std::uint64_t>(chaseWords));
    const std::uint64_t streamBase =
        b.alloc(static_cast<std::uint64_t>(streamWords));

    b.reserveMem(chaseWords + streamWords);
    // chase image: one strided cycle (memStride forced odd => the
    // walk visits every word before repeating)
    {
        const std::int64_t stride = memStride | 1;
        for (std::int64_t i = 0; i < chaseWords; i++) {
            b.initMem(chaseBase + static_cast<std::uint64_t>(i),
                      (i + stride) & (chaseWords - 1));
        }
    }
    detail::emitFillArray(b, streamBase, streamWords, 0xffffff,
                          params.seed);

    b.newProc("main");
    b.emit(makeMovImm(6, static_cast<std::int64_t>(chaseBase)));
    b.emit(makeMovImm(7, static_cast<std::int64_t>(streamBase)));
    b.emit(makeMovImm(17, streamWords - 1)); // stream index mask
    b.emit(makeMovImm(15, static_cast<std::int64_t>(
                              params.seed & (chaseWords - 1)))); // chase pos
    b.emit(makeMovImm(28, 0)); // checksum

    b.emit(makeMovImm(21, 0));
    b.emit(makeMovImm(20, params.reps(64)));
    auto rep = b.beginLoop(21, 20);

    // --- high-ILP phase: independent streams over a hot array ------
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, ilpIters));
    auto ilp = b.beginLoop(1, 2);
    b.emit(makeShl(9, 1, 2));     // wrap four-word window into the
    b.emit(makeAnd(9, 9, 17));    // stream array
    b.emit(makeAdd(8, 7, 9));
    b.emit(makeLoad(10, 8, 0));
    b.emit(makeAdd(24, 24, 10));
    b.emit(makeLoad(11, 8, 1));
    b.emit(makeAdd(25, 25, 11));
    b.emit(makeLoad(12, 8, 2));
    b.emit(makeXor(26, 26, 12));
    b.emit(makeLoad(13, 8, 3));
    b.emit(makeAdd(27, 27, 13));
    b.emit(makeShl(14, 10, 1));
    b.emit(makeAdd(28, 28, 14));
    b.endLoop(ilp);

    // --- serial memory-bound phase: chase the strided cycle --------
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, memIters));
    auto chase = b.beginLoop(1, 2);
    b.emit(makeAdd(3, 6, 15));
    b.emit(makeLoad(15, 3, 0)); // serial: next position
    b.emit(makeAdd(28, 28, 15));
    b.endLoop(chase);

    b.endLoop(rep);

    // fold the stream accumulators and publish the checksum
    b.emit(makeAdd(28, 28, 24));
    b.emit(makeAdd(28, 28, 25));
    b.emit(makeAdd(28, 28, 26));
    b.emit(makeAdd(28, 28, 27));
    b.emit(makeMovImm(5, 8));
    b.emit(makeStore(5, 28, 0));
    b.emit(makeHalt());
    return b.build();
}

} // namespace siq::workloads
