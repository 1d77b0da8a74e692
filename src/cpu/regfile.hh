/**
 * @file
 * Banked physical register file with renaming (Table 1: 112 entries
 * in 14 banks of 8, one file for integer and one for FP).
 *
 * The free list is a bitmap allocated lowest-set-bit-first, so
 * allocation packs the lowest-numbered banks; a bank with no live
 * register is power-gated. This is the bank-packing policy the
 * paper's register-file savings rely on ("by banking them we can
 * turn off those banks that are not in use"). Lowest-free-first is
 * exactly the order a min-heap free list produces, at O(1) per
 * rename/release (two 64-bit words cover the Table-1 file) instead
 * of O(log n) heap maintenance — renaming is on the dispatch path.
 */

#ifndef SIQ_CPU_REGFILE_HH
#define SIQ_CPU_REGFILE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace siq
{

/** Geometry of one physical register file. */
struct RegFileConfig
{
    int numPhys = 112;
    int numArch = 32;
    int bankSize = 8;
};

/** Rename map + free list + readiness scoreboard + bank liveness. */
class RegFile
{
  public:
    explicit RegFile(const RegFileConfig &config);

    bool hasFree() const { return freeCount > 0; }

    /**
     * Rename @p archReg to a fresh physical register.
     * @return {newPhys, oldPhys}; oldPhys is freed when the renaming
     *         instruction commits.
     */
    std::pair<int, int> rename(int archReg);

    /** Current mapping of an architectural register. */
    int lookup(int archReg) const { return mapTable[archReg]; }

    /** Value availability of a physical register. */
    bool isReady(int phys) const { return readyBit[phys] != 0; }
    void setReady(int phys) { readyBit[phys] = 1; }

    /** Return @p phys to the free list (at commit of the redefiner). */
    void release(int phys);

    /** Free-list population (squash-recovery invariant checks). */
    int freeRegs() const { return freeCount; }

    /// @name Rename-map checkpointing for wrong-path squash recovery.
    /// The free list needs no snapshot: squash releases exactly the
    /// fresh registers the squashed instructions renamed, and the
    /// prior mappings written back here stayed live throughout (their
    /// releases ride on commits that never happened).
    /// @{
    void
    snapshotMap(std::vector<int> &out) const
    {
        out = mapTable;
    }

    void
    restoreMap(const std::vector<int> &snap)
    {
        SIQ_ASSERT(snap.size() == mapTable.size());
        mapTable = snap;
    }
    /// @}

    /// @name Bank occupancy (for the power model).
    /// @{
    int numBanks() const { return _numBanks; }
    int liveRegs() const { return _liveRegs; }
    /** Banks holding at least one live register. Maintained
     *  incrementally on 0↔1 liveness transitions — this is read
     *  every cycle by the core's stats block. */
    int poweredBanks() const { return _poweredBanks; }
    /// @}

    const RegFileConfig &config() const { return _config; }

  private:
    RegFileConfig _config;
    int _numBanks;
    std::vector<int> mapTable;
    std::vector<std::uint8_t> readyBit;
    /** Bank of each physical register (phys / bankSize, precomputed:
     *  rename and release are per-instruction). */
    std::vector<int> bankOf;
    std::vector<int> bankLive;
    /** Free-list bitmap: bit p set = phys reg p is free. */
    std::vector<std::uint64_t> freeMask;
    int freeCount = 0;
    int _liveRegs = 0;
    int _poweredBanks = 0;
};

} // namespace siq

#endif // SIQ_CPU_REGFILE_HH
