#include "cpu/iq.hh"

#include <bit>

#include "common/logging.hh"

namespace siq
{

IssueQueue::IssueQueue(const IqConfig &config) : cfg(config)
{
    SIQ_ASSERT(cfg.numEntries > 0 && cfg.bankSize > 0 &&
               cfg.numEntries % cfg.bankSize == 0,
               "banks must tile the issue queue");
    nbanks = cfg.numEntries / cfg.bankSize;
    slots.assign(static_cast<std::size_t>(cfg.numEntries), {});
    for (int slot = 0; slot < cfg.numEntries; slot++)
        slots[slot].bank = slot / cfg.bankSize;
    bankValid.assign(static_cast<std::size_t>(nbanks), 0);
    readyBits.assign(static_cast<std::size_t>(cfg.numEntries + 63) / 64,
                     0);
    // handles are file*256 + phys with phys < 256 (regHandleStride
    // in cpu/core.hh; the Core constructor asserts the invariant)
    waiters.assign(512, {});
    maxNewRange = cfg.numEntries; // unconstrained until a hint arrives
}

int
IssueQueue::dispatch(int robIdx, int psrc1, bool ready1, int psrc2,
                     bool ready2)
{
    SIQ_ASSERT(canDispatch(), "dispatch into a blocked queue");
    const int slot = tail;
    Entry &e = slots[slot];
    SIQ_ASSERT(!e.valid, "tail slot occupied");
    e.valid = true;
    e.robIdx = robIdx;
    e.psrc1 = psrc1;
    e.psrc2 = psrc2;
    e.ready1 = ready1 || psrc1 < 0;
    e.ready2 = ready2 || psrc2 < 0;
    const int pending = (e.ready1 ? 0 : 1) + (e.ready2 ? 0 : 1);
    if (!e.ready1) {
        SIQ_ASSERT(psrc1 >= 0 &&
                   psrc1 < static_cast<int>(waiters.size()),
                   "tag out of range: ", psrc1);
        waiters[psrc1].push_back(slot * 2);
    }
    if (!e.ready2) {
        SIQ_ASSERT(psrc2 >= 0 &&
                   psrc2 < static_cast<int>(waiters.size()),
                   "tag out of range: ", psrc2);
        waiters[psrc2].push_back(slot * 2 + 1);
    }
    if (bankValid[e.bank]++ == 0)
        poweredBankCount++;
    pendingOps += pending;
    tail = next(tail);
    count++;
    regionLen++;
    newRegionLen++;
    events.dispatchWrites++;
    if (e.ready1 && e.ready2)
        readyInsert(slot);
    return slot;
}

void
IssueQueue::applyHint(int entries)
{
    if (entries < 1)
        entries = 1;
    if (entries > cfg.numEntries)
        entries = cfg.numEntries;
    maxNewRange = entries;
    newHead = tail;
    newRegionLen = 0;
}

void
IssueQueue::wakeup(int ptag)
{
    events.broadcasts++;
    events.cmpConventional +=
        2 * static_cast<std::uint64_t>(cfg.numEntries);

    // powered-bank operand slots (bank gating only, no operand
    // gating) — poweredBankCount is exactly the number of banks the
    // old per-bank scan found occupied
    events.cmpPowered += 2 * static_cast<std::uint64_t>(cfg.bankSize) *
                         static_cast<std::uint64_t>(poweredBankCount);

    // gated comparisons: only non-ready operands of valid entries
    // participate, and pendingOps is exactly their count — account
    // for them in bulk. The ready-bit updates then touch only this
    // tag's registered waiters (O(matches), not a region walk); each
    // record is re-validated against the live entry, so stale or
    // duplicate records are harmless no-ops.
    events.cmpGated += static_cast<std::uint64_t>(pendingOps);

    SIQ_ASSERT(ptag >= 0 && ptag < static_cast<int>(waiters.size()),
               "tag out of range: ", ptag);
    auto &ws = waiters[ptag];
    for (const int w : ws) {
        const int slot = w >> 1;
        Entry &e = slots[slot];
        if (!e.valid)
            continue; // stale: issued (or squashed) while pending
        const bool wasReady = e.ready1 && e.ready2;
        if ((w & 1) == 0) {
            if (e.ready1 || e.psrc1 != ptag)
                continue; // already woken, or the slot was reused
            e.ready1 = true;
        } else {
            if (e.ready2 || e.psrc2 != ptag)
                continue;
            e.ready2 = true;
        }
        pendingOps--;
        if (!wasReady && e.ready1 && e.ready2)
            readyInsert(slot);
    }
    ws.clear();
}

void
IssueQueue::appendReady(int lo, int hi, int distBase,
                        std::vector<Candidate> &out) const
{
    if (lo >= hi)
        return;
    const int lastWord = (hi - 1) >> 6;
    for (int w = lo >> 6; w <= lastWord; w++) {
        std::uint64_t bits = readyBits[static_cast<std::size_t>(w)];
        if (w == lo >> 6)
            bits &= ~std::uint64_t{0} << (lo & 63);
        if (w == lastWord && (hi & 63) != 0)
            bits &= ~(~std::uint64_t{0} << (hi & 63));
        while (bits != 0) {
            const int slot = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            out.push_back({slot, slots[slot].robIdx, slot + distBase});
        }
    }
}

void
IssueQueue::collectReady(std::vector<Candidate> &out) const
{
    out.clear();
    // region order: head to the end of the ring, then the wrapped part
    appendReady(head, cfg.numEntries, -head, out);
    appendReady(0, head, cfg.numEntries - head, out);
}

void
IssueQueue::dropEntry(int slot)
{
    Entry &e = slots[slot];
    // entries normally leave ready, but a squash (or a direct
    // markIssued call) may retire pending operands
    const int pending = (e.ready1 ? 0 : 1) + (e.ready2 ? 0 : 1);
    pendingOps -= pending;
    readyRemove(slot); // a no-op unless the entry was ready
    e.valid = false;
    e.robIdx = -1;
    if (--bankValid[e.bank] == 0)
        poweredBankCount--;
    count--;
}

void
IssueQueue::markIssued(int slot)
{
    SIQ_ASSERT(slots[slot].valid, "issuing an empty slot");
    dropEntry(slot);
    events.issueReads++;
    if (slot == newHead)
        advanceNewHead();
    if (slot == head)
        advanceHead();
}

int
IssueQueue::squashTail(int n)
{
    SIQ_ASSERT(n >= 0, "negative squash span");
    // all still-valid squashed entries sit in the last
    // min(n, regionLen) slots of the region: a surviving pre-squash
    // entry further back would stretch the region past capacity
    const int m = n < regionLen ? n : regionLen;
    int newTail = tail - m;
    if (newTail < 0)
        newTail += cfg.numEntries;
    int dropped = 0;
    // counted walk: when the whole ring is squashed (m == numEntries)
    // newTail equals tail and a pointer-inequality loop would see an
    // empty span
    int slot = newTail;
    for (int i = 0; i < m; i++, slot = next(slot)) {
        if (!slots[slot].valid)
            continue; // already issued before the squash
        dropEntry(slot);
        dropped++;
    }
    tail = newTail;
    regionLen -= m;
    if (newRegionLen >= m) {
        newRegionLen -= m;
    } else {
        // new_head was inside the squashed span
        newHead = tail;
        newRegionLen = 0;
    }
    if (regionLen == 0) {
        SIQ_ASSERT(count == 0, "empty region with valid entries");
        head = tail;
    }
    return dropped;
}

void
IssueQueue::advanceHead()
{
    while (regionLen > 0 && !slots[head].valid) {
        head = next(head);
        regionLen--;
    }
    if (regionLen == 0) {
        SIQ_ASSERT(count == 0, "empty region with valid entries");
    }
    // head may overtake a stale new_head when the new region drained
    if (newRegionLen > regionLen) {
        newHead = head;
        newRegionLen = regionLen;
    }
}

void
IssueQueue::advanceNewHead()
{
    while (newRegionLen > 0 && !slots[newHead].valid) {
        newHead = next(newHead);
        newRegionLen--;
    }
}

} // namespace siq
