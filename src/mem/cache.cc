#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace siq
{

Cache::Cache(const CacheConfig &config) : _config(config)
{
    SIQ_ASSERT(config.sizeBytes > 0 && config.assoc > 0 &&
               config.lineBytes > 0,
               "bad cache geometry for ", config.name);
    SIQ_ASSERT(std::has_single_bit(config.lineBytes),
               "line size must be a power of two");
    numSets = config.sizeBytes / (config.assoc * config.lineBytes);
    SIQ_ASSERT(numSets > 0 && std::has_single_bit(numSets),
               "set count must be a power of two for ", config.name);
    lineShift = std::countr_zero(config.lineBytes);
    tagShift = lineShift + std::countr_zero(numSets);
    lines.assign(static_cast<std::size_t>(numSets) * config.assoc, {});
}

bool
Cache::access(std::uint64_t byteAddr)
{
    _accesses++;
    const std::size_t base = setIndex(byteAddr) * _config.assoc;
    const std::uint64_t tag = tagOf(byteAddr);
    useCounter++;

    std::size_t victim = base;
    std::uint64_t victimUse = ~0ull;
    for (std::size_t w = 0; w < _config.assoc; w++) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useCounter;
            return true;
        }
        const std::uint64_t use = line.valid ? line.lastUse : 0;
        if (use < victimUse) {
            victimUse = use;
            victim = base + w;
        }
    }
    _misses++;
    lines[victim] = {tag, useCounter, true};
    return false;
}

bool
Cache::probe(std::uint64_t byteAddr) const
{
    const std::size_t base = setIndex(byteAddr) * _config.assoc;
    const std::uint64_t tag = tagOf(byteAddr);
    for (std::size_t w = 0; w < _config.assoc; w++) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::resetStats()
{
    _accesses.reset();
    _misses.reset();
}

MemHierarchy::MemHierarchy(const MemHierarchyConfig &config)
    : _config(config), _l1i(config.l1i), _l1d(config.l1d),
      _l2(config.l2)
{}

int
MemHierarchy::instAccess(std::uint64_t byteAddr)
{
    if (_l1i.access(byteAddr))
        return _config.l1i.hitLatency;
    if (_l2.access(byteAddr))
        return _config.l2.hitLatency;
    return _config.memLatency;
}

int
MemHierarchy::dataAccess(std::uint64_t byteAddr)
{
    if (_l1d.access(byteAddr))
        return _config.l1d.hitLatency;
    if (_l2.access(byteAddr))
        return _config.l2.hitLatency;
    return _config.memLatency;
}

void
MemHierarchy::resetStats()
{
    _l1i.resetStats();
    _l1d.resetStats();
    _l2.resetStats();
}

} // namespace siq
