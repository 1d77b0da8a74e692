#include "cpu/regfile.hh"

#include <bit>

namespace siq
{

RegFile::RegFile(const RegFileConfig &config) : _config(config)
{
    SIQ_ASSERT(config.numPhys > config.numArch,
               "need rename headroom");
    SIQ_ASSERT(config.numPhys % config.bankSize == 0,
               "banks must tile the file");
    _numBanks = config.numPhys / config.bankSize;
    mapTable.resize(config.numArch);
    readyBit.assign(config.numPhys, 0);
    bankOf.resize(config.numPhys);
    for (int p = 0; p < config.numPhys; p++)
        bankOf[p] = p / config.bankSize;
    bankLive.assign(_numBanks, 0);

    // arch reg i starts mapped to phys i, value available
    for (int i = 0; i < config.numArch; i++) {
        mapTable[i] = i;
        readyBit[i] = 1;
        if (bankLive[bankOf[i]]++ == 0)
            _poweredBanks++;
        _liveRegs++;
    }
    freeMask.assign((static_cast<std::size_t>(config.numPhys) + 63) /
                        64,
                    0);
    for (int p = config.numArch; p < config.numPhys; p++) {
        freeMask[static_cast<std::size_t>(p) / 64] |=
            std::uint64_t{1} << (p % 64);
        freeCount++;
    }
}

std::pair<int, int>
RegFile::rename(int archReg)
{
    SIQ_ASSERT(freeCount > 0, "rename with empty free list");
    // lowest free physical register — the min-heap allocation order,
    // found by first-set-bit scan
    int fresh = -1;
    for (std::size_t w = 0; w < freeMask.size(); w++) {
        if (freeMask[w] != 0) {
            const int bit = std::countr_zero(freeMask[w]);
            fresh = static_cast<int>(w) * 64 + bit;
            freeMask[w] &= freeMask[w] - 1; // clear lowest set bit
            freeCount--;
            break;
        }
    }
    const int old = mapTable[archReg];
    mapTable[archReg] = fresh;
    readyBit[fresh] = 0;
    if (bankLive[bankOf[fresh]]++ == 0)
        _poweredBanks++;
    _liveRegs++;
    return {fresh, old};
}

void
RegFile::release(int phys)
{
    SIQ_ASSERT(phys >= 0 && phys < _config.numPhys, "bad release");
    readyBit[phys] = 0;
    const int bank = bankOf[phys];
    if (--bankLive[bank] == 0)
        _poweredBanks--;
    SIQ_ASSERT(bankLive[bank] >= 0, "bank liveness underflow");
    _liveRegs--;
    freeMask[static_cast<std::size_t>(phys) / 64] |=
        std::uint64_t{1} << (phys % 64);
    freeCount++;
}

} // namespace siq
