/**
 * @file
 * The banked, non-collapsible issue queue with the paper's additions
 * (§3.1): a second head pointer @c new_head under compiler control and
 * the @c max_new_range dispatch constraint.
 *
 * Geometry: a circular buffer of slots grouped into banks. Issued
 * entries leave holes (no compaction, as in Folegnani&González,
 * Buyuktosunoglu et al. and Abella&González); @c head advances over
 * holes when its own instruction issues, @c tail only moves forward on
 * dispatch. The occupied region is [head, tail); the queue is full
 * when that region spans every slot, regardless of holes.
 *
 * new_head semantics (paper figure 2): a hint sets
 * @c new_head = tail and @c max_new_range = value; dispatch is blocked
 * while dist(new_head, tail) >= max_new_range; when the entry at
 * @c new_head issues the pointer advances to the next valid slot or to
 * @c tail.
 *
 * A bank is powered while it holds at least one valid entry. Wake-up
 * accounting follows Folegnani&González: empty and ready operands are
 * precharge-gated and do not participate in comparisons; the ungated
 * counts are kept too so the power model can report the conventional
 * baseline and the paper's "nonEmpty" bar.
 */

#ifndef SIQ_CPU_IQ_HH
#define SIQ_CPU_IQ_HH

#include <cstdint>
#include <vector>

namespace siq
{

/** Issue queue geometry (Table 1: 80 entries; 10 banks of 8). */
struct IqConfig
{
    int numEntries = 80;
    int bankSize = 8;
};

/** Per-broadcast / per-cycle wake-up and occupancy counters. */
struct IqEventCounts
{
    std::uint64_t broadcasts = 0;
    /** Gated comparisons: non-empty, non-ready operands in powered
     *  banks (what the paper's machine pays per broadcast). */
    std::uint64_t cmpGated = 0;
    /** All operand slots of powered banks (bank gating only). */
    std::uint64_t cmpPowered = 0;
    /** All operand slots of the whole queue (conventional CAM). */
    std::uint64_t cmpConventional = 0;
    std::uint64_t dispatchWrites = 0;
    std::uint64_t issueReads = 0;
    std::uint64_t poweredBankCycles = 0;
    std::uint64_t totalBankCycles = 0;
    std::uint64_t occupancySum = 0; ///< valid entries, summed per cycle
    std::uint64_t cycles = 0;

    void
    reset()
    {
        *this = IqEventCounts{};
    }

    /** Bit-exact comparison (sweep-engine determinism checks). */
    bool operator==(const IqEventCounts &) const = default;
};

/** The issue queue. */
class IssueQueue
{
  public:
    explicit IssueQueue(const IqConfig &config);

    /// @name Dispatch side.
    /// @{
    /** Slots free in the occupied region (structural capacity). */
    bool regionFull() const { return regionLen >= cfg.numEntries; }
    /** Paper constraint: would one more dispatch exceed the range? */
    bool rangeBlocked() const { return newRegionLen >= maxNewRange; }
    bool canDispatch() const { return !regionFull() && !rangeBlocked(); }

    /**
     * Insert an instruction at the tail.
     * @return slot index (for issue bookkeeping).
     */
    int dispatch(int robIdx, int psrc1, bool ready1, int psrc2,
                 bool ready2);

    /** Apply a compiler hint: new_head <- tail, set the range. */
    void applyHint(int entries);
    /// @}

    /// @name Wakeup and select.
    /// @{
    /** Broadcast a completed tag; sets ready bits, counts energy. */
    void wakeup(int ptag);

    /** One selectable entry as seen by the core. */
    struct Candidate
    {
        int slot = -1;
        int robIdx = -1;
        /** Circular distance from head (age proxy for resizers). */
        int distFromHead = 0;
    };

    /**
     * Ready entries oldest-first (core applies FU/width limits).
     * The ready set is a bitmask maintained incrementally — an entry
     * enters when its last operand becomes ready (dispatch/wakeup)
     * and leaves on markIssued — and is read from head around the
     * ring, so the output is identical to a head-to-tail walk of the
     * occupied region at one word per 64 slots.
     */
    void collectReady(std::vector<Candidate> &out) const;

    /** Remove an issued entry; advances head/new_head as needed. */
    void markIssued(int slot);
    /// @}

    /**
     * Squash the youngest dispatches (wrong-path recovery): undo the
     * tail advances of the last @p n dispatch() calls, dropping any
     * of their entries still valid. Entries of that span that already
     * issued are holes and need no work; if every older entry has
     * drained meanwhile (tail lapped the span), the region simply
     * collapses to empty. Charges no issueReads — a flush clears
     * valid bits, it does not read out operands.
     * @return entries dropped (still-valid squashed instructions).
     */
    int squashTail(int n);

    /// @name Observation.
    /// @{
    int validCount() const { return count; }
    int regionSize() const { return regionLen; }
    int distNewHeadToTail() const { return newRegionLen; }
    int currentRange() const { return maxNewRange; }
    int numBanks() const { return nbanks; }
    /** Banks holding at least one valid entry. Maintained
     *  incrementally on 0↔1 occupancy transitions — read every
     *  cycle (tickStats) and per broadcast (wakeup). */
    int poweredBanks() const { return poweredBankCount; }
    int headSlot() const { return head; }
    int newHeadSlot() const { return newHead; }
    /// @}

    /** Per-cycle stats accumulation for @p n cycles of unchanged
     *  queue state: 1 per ticked cycle, or a whole idle stretch in
     *  one step (core idle fast-forward, DESIGN.md §12). */
    void
    tickStats(std::uint64_t n)
    {
        events.cycles += n;
        events.occupancySum += n * static_cast<std::uint64_t>(count);
        events.poweredBankCycles +=
            n * static_cast<std::uint64_t>(poweredBankCount);
        events.totalBankCycles +=
            n * static_cast<std::uint64_t>(nbanks);
    }

    IqEventCounts events; ///< exposed for the power model

  private:
    struct Entry
    {
        bool valid = false;
        int robIdx = -1;
        int psrc1 = -1;
        int psrc2 = -1;
        bool ready1 = true;
        bool ready2 = true;
        int bank = 0; ///< fixed per slot: slot / bankSize
    };

    int
    next(int slot) const
    {
        return slot + 1 == cfg.numEntries ? 0 : slot + 1;
    }

    void advanceHead();
    void advanceNewHead();

    void
    readyInsert(int slot)
    {
        readyBits[static_cast<std::size_t>(slot) >> 6] |=
            std::uint64_t{1} << (slot & 63);
    }

    void
    readyRemove(int slot)
    {
        readyBits[static_cast<std::size_t>(slot) >> 6] &=
            ~(std::uint64_t{1} << (slot & 63));
    }

    /** Append the ready entries of slots [lo, hi) in slot order;
     *  each one's distFromHead (circular distance from head, holes
     *  included) is its slot plus @p distBase. */
    void appendReady(int lo, int hi, int distBase,
                     std::vector<Candidate> &out) const;
    /** Invalidate a valid entry (issue or squash). */
    void dropEntry(int slot);

    IqConfig cfg;
    int nbanks;
    std::vector<Entry> slots;
    std::vector<int> bankValid; ///< valid entries per bank
    /** Non-ready operands of valid entries: exactly the gated
     *  comparisons one broadcast pays. */
    int pendingOps = 0;
    int poweredBankCount = 0; ///< banks with bankValid > 0
    /** One bit per slot: set for valid entries with both operands
     *  ready. Only valid entries are set and they all lie in the
     *  region [head, tail), so walking the set bits from head to the
     *  end of the ring and then from 0 to head visits them oldest
     *  first. */
    std::vector<std::uint64_t> readyBits;
    /**
     * Per-tag wake-up index: waiters[tag] lists the pending operands
     * (slot*2 + operandIdx) registered for that tag at dispatch, so
     * a broadcast touches only its matches instead of walking the
     * region. Records can go stale (entry issued pending via
     * the direct API, slot reused); wakeup() re-validates each
     * against the live entry, and a pending operand re-registered in
     * a reused slot just deduplicates. Drained (cleared) per
     * broadcast — a physical tag broadcasts once before reuse.
     */
    std::vector<std::vector<int>> waiters;
    int head = 0;
    int tail = 0;
    int newHead = 0;
    int count = 0;        ///< valid entries
    int regionLen = 0;    ///< slots in [head, tail), holes included
    int newRegionLen = 0; ///< slots in [new_head, tail)
    int maxNewRange;
};

} // namespace siq

#endif // SIQ_CPU_IQ_HH
