/** @file Branch predictor, register file, LSQ and cache unit tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.hh"
#include "cpu/bpred.hh"
#include "cpu/lsq.hh"
#include "cpu/regfile.hh"
#include "mem/cache.hh"

namespace siq
{
namespace
{

TEST(Bpred, LearnsAlwaysTaken)
{
    Bpred bp(BpredConfig{});
    const std::uint64_t pc = 0x1000;
    for (int i = 0; i < 8; i++)
        bp.updateDirection(pc, true);
    EXPECT_TRUE(bp.predictDirection(pc));
}

TEST(Bpred, LearnsAlternatingPatternViaGshare)
{
    Bpred bp(BpredConfig{});
    const std::uint64_t pc = 0x2000;
    // train: taken iff previous outcome was not-taken (period 2)
    for (int i = 0; i < 4096; i++)
        bp.updateDirection(pc, i % 2 == 0);
    int correct = 0;
    for (int i = 0; i < 100; i++) {
        const bool actual = i % 2 == 0;
        correct += bp.predictDirection(pc) == actual ? 1 : 0;
        bp.updateDirection(pc, actual);
    }
    EXPECT_GT(correct, 95) << "history-based side must capture period-2";
}

TEST(Bpred, BtbStoresAndEvicts)
{
    BpredConfig cfg;
    cfg.btbEntries = 8;
    cfg.btbAssoc = 2;
    Bpred bp(cfg);
    EXPECT_EQ(bp.btbLookup(0x4000), 0u);
    bp.btbUpdate(0x4000, 0x9000);
    EXPECT_EQ(bp.btbLookup(0x4000), 0x9000u);
    bp.btbUpdate(0x4000, 0x9004);
    EXPECT_EQ(bp.btbLookup(0x4000), 0x9004u) << "target refresh";
    // force conflict evictions in one set (4 sets, 2 ways)
    for (std::uint64_t i = 1; i <= 4; i++)
        bp.btbUpdate(0x4000 + i * 4 * 4, 0x1111 * i);
    // original entry eventually evicted
    bool stillThere = bp.btbLookup(0x4000) == 0x9004u;
    EXPECT_FALSE(stillThere);
}

TEST(Bpred, RasPushPopLifo)
{
    Bpred bp(BpredConfig{});
    bp.rasPush(0x100);
    bp.rasPush(0x200);
    EXPECT_EQ(bp.rasPop(), 0x200u);
    EXPECT_EQ(bp.rasPop(), 0x100u);
    EXPECT_EQ(bp.rasPop(), 0u) << "empty stack predicts 0";
}

TEST(Bpred, RasOverflowDropsOldest)
{
    BpredConfig cfg;
    cfg.rasEntries = 2;
    Bpred bp(cfg);
    bp.rasPush(1);
    bp.rasPush(2);
    bp.rasPush(3); // pushes 1 out
    EXPECT_EQ(bp.rasPop(), 3u);
    EXPECT_EQ(bp.rasPop(), 2u);
    EXPECT_EQ(bp.rasPop(), 0u);
}

TEST(RegFile, RenameAllocatesLowestFreeFirst)
{
    RegFile rf(RegFileConfig{112, 32, 8});
    const auto [fresh, old] = rf.rename(5);
    EXPECT_EQ(old, 5) << "initial mapping is identity";
    EXPECT_EQ(fresh, 32) << "lowest free physical register";
    EXPECT_FALSE(rf.isReady(fresh));
    rf.setReady(fresh);
    EXPECT_TRUE(rf.isReady(fresh));
    EXPECT_EQ(rf.lookup(5), fresh);
}

TEST(RegFile, ReleaseRecyclesIntoLowSlots)
{
    RegFile rf(RegFileConfig{112, 32, 8});
    const auto [p1, o1] = rf.rename(1);
    rf.release(o1); // free phys 1
    const auto [p2, o2] = rf.rename(2);
    EXPECT_EQ(p2, 1) << "min-heap free list reuses the low register";
    (void)p1;
    (void)o2;
}

TEST(RegFile, BankLivenessTracksAllocations)
{
    RegFile rf(RegFileConfig{112, 32, 8});
    EXPECT_EQ(rf.poweredBanks(), 4) << "32 arch regs fill 4 banks";
    EXPECT_EQ(rf.liveRegs(), 32);
    std::vector<int> olds;
    for (int i = 0; i < 9; i++) {
        const auto [fresh, old] = rf.rename(i);
        olds.push_back(old);
        (void)fresh;
    }
    EXPECT_EQ(rf.poweredBanks(), 6) << "phys 32..40 span two banks";
    for (int old : olds)
        rf.release(old);
    EXPECT_EQ(rf.liveRegs(), 32);
}

TEST(RegFile, ExhaustionDetected)
{
    RegFile rf(RegFileConfig{40, 32, 8});
    for (int i = 0; i < 8; i++) {
        ASSERT_TRUE(rf.hasFree());
        rf.rename(i % 32);
    }
    EXPECT_FALSE(rf.hasFree());
}

/**
 * Randomized shadow-model stress for the register file, mirroring the
 * IQ fast-path test in test_cpu_iq.cc: a naive reference (map table
 * as an array, free list as an ordered set, bank liveness recounted
 * from scratch) must agree with the RegFile on every observable —
 * mapping, readiness, live count, powered banks — across thousands of
 * randomized rename/writeback/commit operations.
 */
TEST(RegFile, RandomizedShadowModelAgrees)
{
    const RegFileConfig cfg{48, 32, 8}; // 6 banks, 16 rename headroom
    RegFile rf(cfg);

    std::vector<int> map(static_cast<std::size_t>(cfg.numArch));
    std::iota(map.begin(), map.end(), 0);
    std::set<int> freeSet;
    for (int p = cfg.numArch; p < cfg.numPhys; p++)
        freeSet.insert(p);
    std::vector<bool> ready(static_cast<std::size_t>(cfg.numPhys),
                            false);
    for (int a = 0; a < cfg.numArch; a++)
        ready[static_cast<std::size_t>(a)] = true;
    // previous mappings awaiting release at their redefiner's commit
    std::vector<int> pendingRelease;

    Rng rng(4242);
    for (int step = 0; step < 20000; step++) {
        const int action = static_cast<int>(rng.range(0, 9));
        if (action < 4 && !freeSet.empty()) {
            const int arch = static_cast<int>(
                rng.range(0, cfg.numArch - 1));
            const auto [fresh, old] = rf.rename(arch);
            ASSERT_EQ(fresh, *freeSet.begin())
                << "min-heap free list must pack the lowest bank";
            ASSERT_EQ(old, map[static_cast<std::size_t>(arch)]);
            freeSet.erase(freeSet.begin());
            map[static_cast<std::size_t>(arch)] = fresh;
            ready[static_cast<std::size_t>(fresh)] = false;
            pendingRelease.push_back(old);
        } else if (action < 6 && !pendingRelease.empty()) {
            // commit a random redefiner: its old mapping dies
            const std::size_t pick = static_cast<std::size_t>(
                rng.range(0,
                          static_cast<std::int64_t>(
                              pendingRelease.size()) -
                              1));
            const int phys = pendingRelease[pick];
            pendingRelease.erase(
                pendingRelease.begin() +
                static_cast<std::ptrdiff_t>(pick));
            rf.release(phys);
            freeSet.insert(phys);
            ready[static_cast<std::size_t>(phys)] = false;
        } else if (action < 8) {
            // writeback: the current mapping's value arrives
            const int arch = static_cast<int>(
                rng.range(0, cfg.numArch - 1));
            const int phys = map[static_cast<std::size_t>(arch)];
            rf.setReady(phys);
            ready[static_cast<std::size_t>(phys)] = true;
        }

        const int live = cfg.numPhys -
                         static_cast<int>(freeSet.size());
        ASSERT_EQ(rf.liveRegs(), live) << "step " << step;
        ASSERT_EQ(rf.hasFree(), !freeSet.empty()) << "step " << step;

        // recount powered banks from scratch: a bank is live when
        // any non-free register lives in it
        std::vector<int> bankLive(
            static_cast<std::size_t>(rf.numBanks()), 0);
        for (int p = 0; p < cfg.numPhys; p++) {
            if (freeSet.find(p) == freeSet.end())
                bankLive[static_cast<std::size_t>(
                    p / cfg.bankSize)]++;
        }
        int powered = 0;
        for (int n : bankLive)
            powered += n > 0 ? 1 : 0;
        ASSERT_EQ(rf.poweredBanks(), powered) << "step " << step;

        for (int a = 0; a < cfg.numArch; a++) {
            const int phys = map[static_cast<std::size_t>(a)];
            ASSERT_EQ(rf.lookup(a), phys) << "step " << step;
            ASSERT_EQ(rf.isReady(phys),
                      ready[static_cast<std::size_t>(phys)])
                << "step " << step << " arch " << a;
        }
    }
}

TEST(Lsq, LoadBlockedByIncompleteOlderStoreSameAddress)
{
    Lsq lsq(LsqConfig{8});
    const int st = lsq.allocate(true, 100, 0);
    const int ld = lsq.allocate(false, 100, 1);
    EXPECT_TRUE(lsq.loadBlocked(ld));
    lsq.markIssued(st);
    EXPECT_TRUE(lsq.loadBlocked(ld)) << "issued is not completed";
    lsq.markCompleted(st);
    EXPECT_FALSE(lsq.loadBlocked(ld));
    EXPECT_TRUE(lsq.loadForwards(ld));
}

TEST(Lsq, DifferentAddressesDoNotBlock)
{
    Lsq lsq(LsqConfig{8});
    lsq.allocate(true, 100, 0);
    const int ld = lsq.allocate(false, 104, 1);
    EXPECT_FALSE(lsq.loadBlocked(ld));
    EXPECT_FALSE(lsq.loadForwards(ld));
}

TEST(Lsq, YoungestMatchingStoreForwards)
{
    Lsq lsq(LsqConfig{8});
    const int s1 = lsq.allocate(true, 100, 0);
    const int s2 = lsq.allocate(true, 100, 1);
    const int ld = lsq.allocate(false, 100, 2);
    lsq.markIssued(s1);
    lsq.markCompleted(s1);
    EXPECT_TRUE(lsq.loadBlocked(ld)) << "s2 still pending";
    lsq.markIssued(s2);
    lsq.markCompleted(s2);
    EXPECT_TRUE(lsq.loadForwards(ld));
}

TEST(Lsq, ReleaseInCommitOrderAndWrap)
{
    Lsq lsq(LsqConfig{4});
    for (int round = 0; round < 5; round++) {
        const int a = lsq.allocate(false, 1, 0);
        const int b = lsq.allocate(true, 2, 1);
        lsq.releaseHead(a);
        lsq.releaseHead(b);
        EXPECT_EQ(lsq.size(), 0);
    }
    EXPECT_FALSE(lsq.full());
}

/**
 * Randomized shadow-model stress for the LSQ: a naive program-order
 * reference must agree on loadBlocked/loadForwards (walk all older
 * entries, youngest matching store decides) and on the size/full
 * observables, across randomized allocate/issue/complete/commit/squash
 * streams with heavy address aliasing. The stream is biased to reach
 * the cases the LSQ's same-address chains must survive — stores
 * completing out of order, stores committing while a younger
 * same-address load waits, squashes of stores that head an address's
 * chain, and slot reuse after wrap-around — and counts each so a
 * change in the stream cannot silently stop exercising them.
 */
TEST(Lsq, RandomizedShadowModelAgrees)
{
    struct ShadowEntry
    {
        bool isStore;
        std::uint64_t addr;
        bool completed = false;
        int idx; ///< the Lsq's entry index
    };

    const LsqConfig cfg{16};
    Lsq lsq(cfg);
    std::deque<ShadowEntry> shadow; // oldest (head) first

    // shadow-model verdicts for the load at shadow[i]
    const auto blockedAt = [&](std::size_t i) {
        for (std::size_t k = i; k-- > 0;) {
            const auto &older = shadow[k];
            if (older.isStore && older.addr == shadow[i].addr &&
                !older.completed)
                return true;
        }
        return false;
    };
    const auto forwardsAt = [&](std::size_t i) {
        for (std::size_t k = i; k-- > 0;) {
            const auto &older = shadow[k];
            if (older.isStore && older.addr == shadow[i].addr)
                return older.completed;
        }
        return false;
    };

    std::uint64_t outOfOrderCompletions = 0;
    std::uint64_t commitsPastWaitingLoad = 0;
    std::uint64_t squashedStores = 0;
    std::uint64_t allocations = 0;

    Rng rng(9090);
    for (int step = 0; step < 40000; step++) {
        const int action = static_cast<int>(rng.range(0, 11));
        if (action < 4 && !lsq.full()) {
            const bool isStore = rng.chance(0.4);
            // 8 addresses only, to force constant aliasing
            const auto addr =
                static_cast<std::uint64_t>(rng.range(0, 7));
            const int idx = lsq.allocate(isStore, addr, step);
            shadow.push_back({isStore, addr, false, idx});
            allocations++;
        } else if (action < 7 && !shadow.empty()) {
            // drive a random entry one step through issue/complete;
            // stores complete in any order
            const std::size_t pick = static_cast<std::size_t>(
                rng.range(0,
                          static_cast<std::int64_t>(shadow.size()) -
                              1));
            auto &e = shadow[pick];
            if (!e.completed && rng.chance(0.5)) {
                lsq.markIssued(e.idx);
            } else if (!e.completed) {
                if (e.isStore) {
                    for (std::size_t k = 0; k < pick; k++) {
                        if (shadow[k].isStore && !shadow[k].completed) {
                            outOfOrderCompletions++;
                            break;
                        }
                    }
                }
                lsq.markIssued(e.idx);
                lsq.markCompleted(e.idx);
                e.completed = true;
            }
        } else if (action < 10 && !shadow.empty()) {
            // commit: release the head entry, even while younger
            // loads still wait on it or forward from it
            const ShadowEntry head = shadow.front();
            if (head.isStore) {
                for (std::size_t i = 1; i < shadow.size(); i++) {
                    if (!shadow[i].isStore &&
                        shadow[i].addr == head.addr && blockedAt(i)) {
                        commitsPastWaitingLoad++;
                        break;
                    }
                }
            }
            lsq.releaseHead(head.idx);
            shadow.pop_front();
        } else if (action == 10 && !shadow.empty()) {
            // wrong-path recovery: squash the youngest few entries
            const int n = static_cast<int>(rng.range(
                1, std::min<std::int64_t>(
                       4, static_cast<std::int64_t>(shadow.size()))));
            lsq.squashTail(n);
            for (int k = 0; k < n; k++) {
                squashedStores += shadow.back().isStore ? 1 : 0;
                shadow.pop_back();
            }
        }

        ASSERT_EQ(lsq.size(), static_cast<int>(shadow.size()))
            << "step " << step;
        ASSERT_EQ(lsq.full(),
                  static_cast<int>(shadow.size()) == cfg.numEntries)
            << "step " << step;

        for (std::size_t i = 0; i < shadow.size(); i++) {
            if (shadow[i].isStore)
                continue;
            ASSERT_EQ(lsq.loadBlocked(shadow[i].idx), blockedAt(i))
                << "step " << step << " entry " << i;
            ASSERT_EQ(lsq.loadForwards(shadow[i].idx), forwardsAt(i))
                << "step " << step << " entry " << i;
        }
    }

    EXPECT_GT(outOfOrderCompletions, 100u);
    EXPECT_GT(commitsPastWaitingLoad, 100u);
    EXPECT_GT(squashedStores, 100u);
    EXPECT_GT(allocations, 10u * static_cast<unsigned>(cfg.numEntries))
        << "slots must be reused many times over";
}

TEST(Cache, HitAfterMiss)
{
    Cache cache(CacheConfig{"t", 1024, 2, 32, 1});
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x11C)) << "same 32B line";
    EXPECT_FALSE(cache.access(0x120)) << "next line";
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2 ways, 32B lines, 2 sets: set stride 64
    Cache cache(CacheConfig{"t", 128, 2, 32, 1});
    cache.access(0);   // set 0, way A
    cache.access(128); // set 0, way B
    cache.access(0);   // touch A so B is LRU
    cache.access(256); // evicts B
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(128));
    EXPECT_TRUE(cache.probe(256));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache cache(CacheConfig{"t", 1024, 2, 32, 1});
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_EQ(cache.accesses(), 0u);
}

TEST(MemHierarchy, LatenciesFollowTable1)
{
    MemHierarchy mem((MemHierarchyConfig()));
    const std::uint64_t addr = 0x12340;
    EXPECT_EQ(mem.dataAccess(addr), 50) << "cold: main memory";
    EXPECT_EQ(mem.dataAccess(addr), 2) << "L1D hit";
    // evict nothing; a new address next to it hits the same L2 line
    // but misses L1 (different L1 line? same 32B line hits)
    EXPECT_EQ(mem.dataAccess(addr + 32), 10)
        << "L1 miss, L2 hit (64B L2 line already filled)";
    EXPECT_EQ(mem.instAccess(0x999000), 50);
    EXPECT_EQ(mem.instAccess(0x999000), 1) << "L1I hit";
}

} // namespace
} // namespace siq
