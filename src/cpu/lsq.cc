#include "cpu/lsq.hh"

#include "common/logging.hh"

namespace siq
{

Lsq::Lsq(const LsqConfig &config) : cfg(config)
{
    SIQ_ASSERT(cfg.numEntries > 0, "empty LSQ");
    entries.assign(static_cast<std::size_t>(cfg.numEntries), {});
}

int
Lsq::allocate(bool isStore, std::uint64_t wordAddr, int robIdx)
{
    SIQ_ASSERT(!full(), "allocate into a full LSQ");
    const int idx = tail;
    Entry &e = entries[idx];
    e = {true, isStore, false, false, wordAddr, robIdx, nextSeq++, {}};
    // link the youngest older same-address store: one walk back from
    // the tail, instead of one per issue attempt
    if (numStores > 0) {
        for (int cur = idx, n = 0; n < count; n++) {
            cur = prev(cur);
            const Entry &s = entries[cur];
            if (s.isStore && s.addr == wordAddr) {
                e.sameAddr = {cur, s.seq};
                break;
            }
        }
    }
    if (isStore) {
        numStores++;
        pendingStores++;
    }
    tail = tail + 1 == cfg.numEntries ? 0 : tail + 1;
    count++;
    return idx;
}

bool
Lsq::loadBlocked(int idx) const
{
    if (pendingStores == 0)
        return false;
    // any incomplete older same-address store blocks the load
    for (const Entry *s = live(entries[idx].sameAddr); s != nullptr;
         s = live(s->sameAddr)) {
        if (!s->completed)
            return true;
    }
    return false;
}

bool
Lsq::loadForwards(int idx) const
{
    if (numStores == 0)
        return false;
    // the youngest older same-address store supplies the value
    const Entry *s = live(entries[idx].sameAddr);
    return s != nullptr && s->completed;
}

void
Lsq::releaseHead(int idx)
{
    SIQ_ASSERT(count > 0 && idx == head,
               "LSQ release out of order: ", idx, " vs head ", head);
    Entry &e = entries[head];
    if (e.isStore) {
        numStores--;
        if (!e.completed)
            pendingStores--;
    }
    // links to it now read as dead
    e.valid = false;
    head = head + 1 == cfg.numEntries ? 0 : head + 1;
    count--;
}

void
Lsq::squashTail(int n)
{
    SIQ_ASSERT(n >= 0 && n <= count, "squashing more than the LSQ holds");
    for (int i = 0; i < n; i++) {
        tail = prev(tail);
        Entry &e = entries[tail];
        SIQ_ASSERT(e.valid, "squashing an empty LSQ slot");
        if (e.isStore) {
            numStores--;
            if (!e.completed)
                pendingStores--;
        }
        e.valid = false;
        count--;
    }
}

} // namespace siq
