/**
 * @file
 * Issue queue mechanics: the paper's figure 2 (new_head and
 * max_new_range), head/tail movement over holes, bank gating and
 * wake-up accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hh"
#include "cpu/iq.hh"

namespace siq
{
namespace
{

IqConfig
smallIq()
{
    IqConfig cfg;
    cfg.numEntries = 16;
    cfg.bankSize = 4;
    return cfg;
}

TEST(IssueQueue, DispatchFillsTail)
{
    IssueQueue iq(smallIq());
    const int s0 = iq.dispatch(0, -1, true, -1, true);
    const int s1 = iq.dispatch(1, -1, true, -1, true);
    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 1);
    EXPECT_EQ(iq.validCount(), 2);
    EXPECT_EQ(iq.regionSize(), 2);
}

TEST(IssueQueue, RegionFullEvenWithHoles)
{
    IqConfig cfg = smallIq();
    IssueQueue iq(cfg);
    for (int i = 0; i < cfg.numEntries; i++)
        iq.dispatch(i, -1, true, -1, true);
    EXPECT_TRUE(iq.regionFull());
    // issue something in the middle: still full (non-collapsible)
    iq.markIssued(5);
    EXPECT_TRUE(iq.regionFull());
    EXPECT_EQ(iq.validCount(), cfg.numEntries - 1);
    // issuing the head frees region space (head skips the hole at 5)
    iq.markIssued(0);
    EXPECT_FALSE(iq.regionFull());
}

TEST(IssueQueue, HeadSkipsHolesUpToNextValid)
{
    IssueQueue iq(smallIq());
    for (int i = 0; i < 6; i++)
        iq.dispatch(i, -1, true, -1, true);
    iq.markIssued(1);
    iq.markIssued(2);
    EXPECT_EQ(iq.headSlot(), 0);
    iq.markIssued(0);
    EXPECT_EQ(iq.headSlot(), 3) << "head advances over the holes";
    EXPECT_EQ(iq.regionSize(), 3);
}

TEST(IssueQueue, Figure2NewHeadOperation)
{
    // figure 2: max_new_range = 4; entries a,[holes],d in the new
    // region; when a issues, new_head moves up to d and three more
    // instructions may dispatch
    IqConfig cfg;
    cfg.numEntries = 16;
    cfg.bankSize = 4;
    IssueQueue iq(cfg);
    iq.applyHint(4);
    const int a = iq.dispatch(0, -1, true, -1, true); // a
    const int bSlot = iq.dispatch(1, -1, true, -1, true);
    const int c = iq.dispatch(2, -1, true, -1, true);
    iq.dispatch(3, -1, true, -1, true);               // d
    EXPECT_TRUE(iq.rangeBlocked()) << "four entries in range 4";
    EXPECT_FALSE(iq.canDispatch());
    // b and c issued earlier, leaving holes (figure 2(a))
    iq.markIssued(bSlot);
    iq.markIssued(c);
    EXPECT_TRUE(iq.rangeBlocked())
        << "holes still count against the range";
    // a issues: new_head moves three slots, up to d
    iq.markIssued(a);
    EXPECT_EQ(iq.newHeadSlot(), 3);
    EXPECT_EQ(iq.distNewHeadToTail(), 1);
    // so up to three more instructions can be dispatched (e, f, g)
    for (int i = 4; i < 7; i++) {
        EXPECT_TRUE(iq.canDispatch()) << "entry " << i;
        iq.dispatch(i, -1, true, -1, true);
    }
    EXPECT_TRUE(iq.rangeBlocked());
}

TEST(IssueQueue, HintResetsNewHeadToTail)
{
    IssueQueue iq(smallIq());
    for (int i = 0; i < 5; i++)
        iq.dispatch(i, -1, true, -1, true);
    iq.applyHint(2);
    EXPECT_EQ(iq.distNewHeadToTail(), 0)
        << "older instructions no longer count against the range";
    iq.dispatch(5, -1, true, -1, true);
    iq.dispatch(6, -1, true, -1, true);
    EXPECT_TRUE(iq.rangeBlocked());
    EXPECT_EQ(iq.validCount(), 7);
}

TEST(IssueQueue, HintValueClamped)
{
    IssueQueue iq(smallIq());
    iq.applyHint(0);
    EXPECT_EQ(iq.currentRange(), 1);
    iq.applyHint(1000);
    EXPECT_EQ(iq.currentRange(), 16);
}

TEST(IssueQueue, WakeupSetsReadyAndCounts)
{
    IssueQueue iq(smallIq());
    iq.dispatch(0, 7, false, 9, false);
    iq.dispatch(1, 7, false, -1, true);
    iq.wakeup(7);
    auto &ev = iq.events;
    EXPECT_EQ(ev.broadcasts, 1u);
    // three non-ready operands compared (entry0: two, entry1: one)
    EXPECT_EQ(ev.cmpGated, 3u);
    // conventional CAM: 2 operands x 16 slots
    EXPECT_EQ(ev.cmpConventional, 32u);
    // one powered bank (both entries in bank 0): 2 x 4 slots
    EXPECT_EQ(ev.cmpPowered, 8u);
    std::vector<IssueQueue::Candidate> ready;
    iq.collectReady(ready);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].robIdx, 1) << "entry 0 still waits on tag 9";
    iq.wakeup(9);
    iq.collectReady(ready);
    EXPECT_EQ(ready.size(), 2u);
}

TEST(IssueQueue, BankGatingFollowsOccupancy)
{
    IqConfig cfg = smallIq(); // 4 banks of 4
    IssueQueue iq(cfg);
    EXPECT_EQ(iq.poweredBanks(), 0);
    std::vector<int> slots;
    for (int i = 0; i < 9; i++)
        slots.push_back(iq.dispatch(i, -1, true, -1, true));
    EXPECT_EQ(iq.poweredBanks(), 3); // slots 0..8 span 3 banks
    for (int i = 0; i < 4; i++)
        iq.markIssued(slots[static_cast<std::size_t>(i)]);
    EXPECT_EQ(iq.poweredBanks(), 2) << "bank 0 empties and gates off";
}

TEST(IssueQueue, CollectReadyIsOldestFirst)
{
    IssueQueue iq(smallIq());
    iq.dispatch(10, -1, true, -1, true);
    iq.dispatch(11, -1, true, -1, true);
    iq.dispatch(12, -1, true, -1, true);
    std::vector<IssueQueue::Candidate> ready;
    iq.collectReady(ready);
    ASSERT_EQ(ready.size(), 3u);
    EXPECT_EQ(ready[0].robIdx, 10);
    EXPECT_EQ(ready[1].robIdx, 11);
    EXPECT_EQ(ready[2].robIdx, 12);
    EXPECT_EQ(ready[0].distFromHead, 0);
    EXPECT_EQ(ready[2].distFromHead, 2);
}

TEST(IssueQueue, WrapAroundKeepsInvariants)
{
    IqConfig cfg = smallIq();
    IssueQueue iq(cfg);
    // repeatedly fill and drain across the wrap point
    std::uint64_t seq = 0;
    for (int round = 0; round < 10; round++) {
        std::vector<int> slots;
        for (int i = 0; i < 12; i++) {
            ASSERT_TRUE(iq.canDispatch());
            slots.push_back(
                iq.dispatch(static_cast<int>(seq % 128), -1, true,
                            -1, true));
            seq++;
        }
        // issue out of order: odd then even
        for (std::size_t i = 1; i < slots.size(); i += 2)
            iq.markIssued(slots[i]);
        for (std::size_t i = 0; i < slots.size(); i += 2)
            iq.markIssued(slots[i]);
        EXPECT_EQ(iq.validCount(), 0);
        EXPECT_EQ(iq.regionSize(), 0);
    }
}

/**
 * Randomized stress for the waiter-index wakeup and the ordered
 * ready set: a naive shadow model (full-region walk, the
 * pre-optimization semantics) must agree with the queue on every
 * event count, ready bit and selection candidate across thousands of
 * mixed operations.
 */
/**
 * Randomized dispatch/wakeup/issue/squash/hint traffic against a shadow
 * model that keeps the valid entries oldest-first and recomputes
 * everything by brute force: the ready list (order, slots, robIdx,
 * distFromHead — the head is the oldest valid entry's slot) and the
 * gated comparison count.
 */
void
checkAgainstShadow(int numEntries, std::uint64_t seed)
{
    struct ShadowEntry
    {
        int robIdx;
        int psrc1, psrc2;
        bool ready1, ready2;
        int slot;
    };

    IqConfig cfg;
    cfg.numEntries = numEntries;
    cfg.bankSize = 8;
    IssueQueue iq(cfg);
    std::vector<ShadowEntry> shadow; // oldest-first valid entries
    // every dispatch in order (robIdx): squashTail(n) undoes the last n
    std::vector<int> dispatchLog;

    Rng rng(seed);
    int seq = 0;
    std::uint64_t expectedGated = 0;
    int lastHead = 0;
    int headWraps = 0;

    for (int step = 0; step < 20000; step++) {
        const int action = static_cast<int>(rng.range(0, 10));
        if (action < 4 && iq.canDispatch()) {
            const int p1 = rng.chance(0.2)
                               ? -1
                               : static_cast<int>(rng.range(0, 30));
            const int p2 = rng.chance(0.2)
                               ? -1
                               : static_cast<int>(rng.range(0, 30));
            const bool r1 = p1 < 0 || rng.chance(0.4);
            const bool r2 = p2 < 0 || rng.chance(0.4);
            const int robIdx = seq++ % 4096;
            const int slot = iq.dispatch(robIdx, p1, r1, p2, r2);
            shadow.push_back(
                {robIdx, p1, p2, r1 || p1 < 0, r2 || p2 < 0, slot});
            dispatchLog.push_back(robIdx);
        } else if (action < 7) {
            const int tag = static_cast<int>(rng.range(0, 30));
            for (auto &e : shadow) {
                if (!e.ready1) {
                    expectedGated++;
                    if (e.psrc1 == tag)
                        e.ready1 = true;
                }
                if (!e.ready2) {
                    expectedGated++;
                    if (e.psrc2 == tag)
                        e.ready2 = true;
                }
            }
            iq.wakeup(tag);
            ASSERT_EQ(iq.events.cmpGated, expectedGated)
                << "step " << step;
        } else if (action < 8 && !shadow.empty()) {
            // issue a random *ready* entry, as the core would
            std::vector<std::size_t> readyIdx;
            for (std::size_t i = 0; i < shadow.size(); i++) {
                if (shadow[i].ready1 && shadow[i].ready2)
                    readyIdx.push_back(i);
            }
            if (!readyIdx.empty()) {
                const std::size_t pick = static_cast<std::size_t>(
                    rng.range(0,
                              static_cast<std::int64_t>(
                                  readyIdx.size()) -
                                  1));
                const std::size_t victim = readyIdx[pick];
                iq.markIssued(shadow[victim].slot);
                shadow.erase(shadow.begin() +
                             static_cast<std::ptrdiff_t>(victim));
            }
        } else if (action < 9 && !shadow.empty()) {
            // remove an arbitrary entry, ready or not (the direct
            // markIssued/squash path): pending-operand bookkeeping
            // must survive retiring unready operands
            const std::size_t victim = static_cast<std::size_t>(
                rng.range(0,
                          static_cast<std::int64_t>(shadow.size()) -
                              1));
            iq.markIssued(shadow[victim].slot);
            shadow.erase(shadow.begin() +
                         static_cast<std::ptrdiff_t>(victim));
        } else if (action < 10 && !dispatchLog.empty()) {
            // squash the youngest n dispatches, issued ones included
            // (wrong-path recovery); n may exceed the region when
            // older entries drained meanwhile
            if (!rng.chance(0.25))
                continue;
            const int maxN = std::min<int>(
                static_cast<int>(dispatchLog.size()),
                rng.chance(0.1) ? numEntries + 8 : 12);
            const int n = static_cast<int>(rng.range(0, maxN));
            int expectDropped = 0;
            for (int i = 0; i < n; i++) {
                const int robIdx = dispatchLog.back();
                dispatchLog.pop_back();
                const auto it = std::find_if(
                    shadow.begin(), shadow.end(),
                    [robIdx](const ShadowEntry &e) {
                        return e.robIdx == robIdx;
                    });
                if (it != shadow.end()) {
                    shadow.erase(it);
                    expectDropped++;
                }
            }
            ASSERT_EQ(iq.squashTail(n), expectDropped)
                << "step " << step;
        } else if (rng.chance(0.3)) {
            iq.applyHint(static_cast<int>(rng.range(1, numEntries)));
        }

        std::vector<IssueQueue::Candidate> got;
        iq.collectReady(got);
        std::vector<const ShadowEntry *> want;
        for (const auto &e : shadow) {
            if (e.ready1 && e.ready2)
                want.push_back(&e);
        }
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); i++) {
            ASSERT_EQ(got[i].robIdx, want[i]->robIdx) << "step " << step;
            ASSERT_EQ(got[i].slot, want[i]->slot) << "step " << step;
            const int dist =
                (want[i]->slot - shadow.front().slot + numEntries) %
                numEntries;
            ASSERT_EQ(got[i].distFromHead, dist) << "step " << step;
        }
        ASSERT_EQ(iq.validCount(),
                  static_cast<int>(shadow.size()));
        if (iq.headSlot() < lastHead)
            headWraps++;
        lastHead = iq.headSlot();
    }
    // the ring must really have been walked around, so every word
    // boundary and the wrap were crossed
    EXPECT_GE(headWraps, 10);
}

TEST(IssueQueue, FastPathMatchesNaiveReference)
{
    // 80 is Table 1; 128 and 200 put the ready bitmask across several
    // 64-bit words, with the head wrapping through each boundary
    for (const int entries : {80, 128, 200}) {
        SCOPED_TRACE(entries);
        checkAgainstShadow(entries, 2024);
        if (HasFatalFailure())
            return;
    }
}

TEST(IssueQueue, TickStatsAccumulate)
{
    IssueQueue iq(smallIq());
    iq.dispatch(0, -1, true, -1, true);
    iq.tickStats(1);
    iq.tickStats(1);
    EXPECT_EQ(iq.events.cycles, 2u);
    EXPECT_EQ(iq.events.occupancySum, 2u);
    EXPECT_EQ(iq.events.poweredBankCycles, 2u);
    EXPECT_EQ(iq.events.totalBankCycles, 8u);
}

} // namespace
} // namespace siq
