#include "cpu/bpred.hh"

#include <bit>

#include "common/logging.hh"

namespace siq
{

// ------------------------------------------------ DirectionPredictor

DirectionPredictor::DirectionPredictor(std::uint32_t gshareEntries,
                                       std::uint32_t bimodalEntries,
                                       std::uint32_t selectorEntries)
{
    // tables are indexed by masking, which is only a modulo for
    // power-of-two sizes
    SIQ_ASSERT(std::has_single_bit(gshareEntries) &&
               std::has_single_bit(bimodalEntries) &&
               std::has_single_bit(selectorEntries),
               "predictor table sizes must be powers of two: ",
               gshareEntries, " gshare, ", bimodalEntries, " bimodal, ",
               selectorEntries, " selector");
    gshare.assign(gshareEntries, 1);   // weakly not-taken
    bimodal.assign(bimodalEntries, 1);
    selector.assign(selectorEntries, 2); // weakly gshare
}

std::uint32_t
DirectionPredictor::counterUpdate(std::uint32_t ctr, bool taken)
{
    if (taken)
        return ctr < 3 ? ctr + 1 : 3;
    return ctr > 0 ? ctr - 1 : 0;
}

bool
DirectionPredictor::predict(std::uint64_t pc) const
{
    const std::uint64_t idx = pc >> 2;
    const auto g = gshare[(idx ^ history) & (gshare.size() - 1)];
    const auto b = bimodal[idx & (bimodal.size() - 1)];
    const auto s = selector[idx & (selector.size() - 1)];
    return (s >= 2 ? g : b) >= 2;
}

void
DirectionPredictor::update(std::uint64_t pc, bool taken)
{
    const std::uint64_t idx = pc >> 2;
    auto &g = gshare[(idx ^ history) & (gshare.size() - 1)];
    auto &b = bimodal[idx & (bimodal.size() - 1)];
    auto &s = selector[idx & (selector.size() - 1)];
    const bool gCorrect = (g >= 2) == taken;
    const bool bCorrect = (b >= 2) == taken;
    if (gCorrect != bCorrect) {
        s = static_cast<std::uint8_t>(counterUpdate(s, gCorrect));
    }
    g = static_cast<std::uint8_t>(counterUpdate(g, taken));
    b = static_cast<std::uint8_t>(counterUpdate(b, taken));
    speculate(taken);
}

void
DirectionPredictor::speculate(bool taken)
{
    history = ((history << 1) | (taken ? 1 : 0)) &
              (gshare.size() - 1);
}

// ------------------------------------------------------------- Btb

Btb::Btb(std::uint32_t numEntries, std::uint32_t assoc) : _assoc(assoc)
{
    SIQ_ASSERT(assoc > 0 && numEntries % assoc == 0);
    const std::uint32_t sets = numEntries / assoc;
    SIQ_ASSERT(std::has_single_bit(sets),
               "BTB set count must be a power of two: ", sets);
    setMask = sets - 1;
    setShift = std::countr_zero(sets);
    entries.assign(numEntries, {});
}

std::uint64_t
Btb::lookup(std::uint64_t pc) const
{
    const std::size_t set = (pc >> 2) & setMask;
    const std::uint64_t tag = (pc >> 2) >> setShift;
    for (std::size_t w = 0; w < _assoc; w++) {
        const auto &e = entries[set * _assoc + w];
        if (e.valid && e.tag == tag)
            return e.target;
    }
    return 0;
}

void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    const std::size_t set = (pc >> 2) & setMask;
    const std::uint64_t tag = (pc >> 2) >> setShift;
    use++;
    std::size_t victim = set * _assoc;
    std::uint64_t lru = ~0ull;
    for (std::size_t w = 0; w < _assoc; w++) {
        auto &e = entries[set * _assoc + w];
        if (e.valid && e.tag == tag) {
            e.target = target;
            e.lastUse = use;
            return;
        }
        const std::uint64_t u = e.valid ? e.lastUse : 0;
        if (u < lru) {
            lru = u;
            victim = set * _assoc + w;
        }
    }
    entries[victim] = {tag, target, use, true};
}

// ------------------------------------------------------------- Ras

Ras::Ras(std::uint32_t numEntries)
{
    stack.assign(numEntries, 0);
}

void
Ras::push(std::uint64_t returnPc)
{
    if (top < stack.size()) {
        stack[top++] = returnPc;
    } else {
        // overflow: shift (oldest entry lost)
        for (std::size_t i = 1; i < stack.size(); i++)
            stack[i - 1] = stack[i];
        stack.back() = returnPc;
    }
}

std::uint64_t
Ras::pop()
{
    if (top == 0)
        return 0;
    return stack[--top];
}

void
Ras::save(Snapshot &out) const
{
    out.stack = stack;
    out.top = top;
}

void
Ras::restore(const Snapshot &snap)
{
    SIQ_ASSERT(snap.stack.size() == stack.size() &&
               snap.top <= stack.size());
    stack = snap.stack;
    top = snap.top;
}

// ----------------------------------------------------------- Bpred

Bpred::Bpred(const BpredConfig &config)
    : dir(config.gshareEntries, config.bimodalEntries,
          config.selectorEntries),
      _btb(config.btbEntries, config.btbAssoc),
      _ras(config.rasEntries)
{
}

bool
Bpred::predictDirection(std::uint64_t pc) const
{
    _lookups++;
    return dir.predict(pc);
}

void
Bpred::updateDirection(std::uint64_t pc, bool taken)
{
    dir.update(pc, taken);
}

bool
Bpred::speculateDirection(std::uint64_t pc)
{
    const bool taken = dir.predict(pc);
    dir.speculate(taken);
    return taken;
}

std::uint64_t
Bpred::btbLookup(std::uint64_t pc) const
{
    return _btb.lookup(pc);
}

void
Bpred::btbUpdate(std::uint64_t pc, std::uint64_t target)
{
    _btb.update(pc, target);
}

void
Bpred::rasPush(std::uint64_t returnPc)
{
    _ras.push(returnPc);
}

std::uint64_t
Bpred::rasPop()
{
    return _ras.pop();
}

void
Bpred::save(BpredSnapshot &out) const
{
    out.history = dir.historyBits();
    _ras.save(out.ras);
}

void
Bpred::restore(const BpredSnapshot &snap)
{
    dir.setHistory(snap.history);
    _ras.restore(snap.ras);
}

} // namespace siq
