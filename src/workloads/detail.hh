/**
 * @file
 * Shared emission helpers for the workload generators. Internal to the
 * workloads library.
 */

#ifndef SIQ_WORKLOADS_DETAIL_HH
#define SIQ_WORKLOADS_DETAIL_HH

#include <cstdint>

#include "common/random.hh"
#include "workloads/builder.hh"

namespace siq::workloads::detail
{

/** Stack pointer register used by recursive workloads. */
constexpr int spReg = 30;

/**
 * Emit an in-register linear congruential step:
 * state = state * mulConst + addConst (clobbers @p tmp).
 */
inline void
emitLcg(ProgramBuilder &b, int state, int tmp,
        std::int64_t mulConst = 6364136223846793005ll,
        std::int64_t addConst = 1442695040888963407ll)
{
    b.emit(makeMovImm(tmp, mulConst));
    b.emit(makeMul(state, state, tmp));
    b.emit(makeAddImm(state, state, addConst));
}

/**
 * Fill @p words words at @p base with masked LCG noise through the
 * initial memory image (host-side, not simulated code). The paper
 * skips each benchmark's initialisation phase; building the data
 * image here keeps the simulated instruction budget on the kernels.
 * Values are (state >> shift) & mask with the emitLcg constants.
 */
inline void
emitFillArray(ProgramBuilder &b, std::uint64_t base,
              std::int64_t words, std::int64_t mask,
              std::uint64_t seed, int shift = 32)
{
    b.reserveMem(static_cast<std::uint64_t>(words));
    std::uint64_t state = seed | 1;
    for (std::int64_t i = 0; i < words; i++) {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        const auto value = static_cast<std::int64_t>(
            (state >> shift) &
            static_cast<std::uint64_t>(mask));
        b.initMem(base + static_cast<std::uint64_t>(i), value);
    }
}

/** Push @p reg to the software stack (grows upward). */
inline void
emitPush(ProgramBuilder &b, int reg)
{
    b.emit(makeStore(spReg, reg, 0));
    b.emit(makeAddImm(spReg, spReg, 1));
}

/** Pop the top of the software stack into @p reg. */
inline void
emitPop(ProgramBuilder &b, int reg)
{
    b.emit(makeAddImm(spReg, spReg, -1));
    b.emit(makeLoad(reg, spReg, 0));
}

} // namespace siq::workloads::detail

#endif // SIQ_WORKLOADS_DETAIL_HH
