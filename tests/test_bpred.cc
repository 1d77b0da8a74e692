/**
 * @file
 * Shadow-model property tests for the speculative front end's
 * predictor components (cpu/bpred.hh). Each component is driven with
 * randomized operation streams against a deliberately naive reference
 * implementation — a formula-level replica of the hybrid direction
 * predictor, a map-plus-recency-list BTB, and a deque RAS — including
 * the edge cases the core's wrong-path machinery leans on: RAS
 * overflow (oldest entry shed) and underflow (pop of an empty stack
 * returns 0, a front-end gate), BTB set aliasing and LRU eviction,
 * and the speculate-then-restore history round trip that squash
 * recovery performs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/random.hh"
#include "cpu/bpred.hh"

namespace siq
{
namespace
{

// --------------------------------------------------------------------
// Direction predictor vs a formula replica
// --------------------------------------------------------------------

/**
 * Naive re-statement of the documented hybrid: gshare indexed by
 * (pc>>2)^history, bimodal and selector by pc>>2, 2-bit saturating
 * counters, selector trained only on disagreement, history shifted by
 * every update (masked to the gshare index width).
 */
struct DirRef
{
    std::vector<int> gshare, bimodal, selector;
    std::uint64_t history = 0;

    DirRef(std::size_t g, std::size_t b, std::size_t s)
        : gshare(g, 1), bimodal(b, 1), selector(s, 2)
    {
    }

    static int
    bump(int ctr, bool taken)
    {
        if (taken)
            return ctr < 3 ? ctr + 1 : 3;
        return ctr > 0 ? ctr - 1 : 0;
    }

    bool
    predict(std::uint64_t pc) const
    {
        const std::uint64_t idx = pc >> 2;
        const int g = gshare[(idx ^ history) % gshare.size()];
        const int b = bimodal[idx % bimodal.size()];
        const int s = selector[idx % selector.size()];
        return (s >= 2 ? g : b) >= 2;
    }

    void
    shift(bool taken)
    {
        history =
            ((history << 1) | (taken ? 1 : 0)) & (gshare.size() - 1);
    }

    void
    update(std::uint64_t pc, bool taken)
    {
        const std::uint64_t idx = pc >> 2;
        int &g = gshare[(idx ^ history) % gshare.size()];
        int &b = bimodal[idx % bimodal.size()];
        int &s = selector[idx % selector.size()];
        const bool gRight = (g >= 2) == taken;
        const bool bRight = (b >= 2) == taken;
        if (gRight != bRight)
            s = bump(s, gRight);
        g = bump(g, taken);
        b = bump(b, taken);
        shift(taken);
    }
};

TEST(BpredShadow, DirectionPredictorMatchesFormulaReplica)
{
    // small tables so indices alias heavily and the selector is
    // exercised on conflicting per-pc histories
    DirectionPredictor dut(64, 32, 16);
    DirRef ref(64, 32, 16);
    Rng rng(0xd1f1u);
    // a handful of hot pcs plus a cold uniform stream
    std::vector<std::uint64_t> hot;
    for (int i = 0; i < 12; i++)
        hot.push_back((rng.next() & 0xffffu) << 2);
    for (int step = 0; step < 20000; step++) {
        const std::uint64_t pc =
            rng.chance(0.75) ? rng.pick(hot) : ((rng.next() & 0xffffu) << 2);
        ASSERT_EQ(dut.predict(pc), ref.predict(pc))
            << "step " << step << " pc " << pc;
        // mix correlated (history-dependent) and random outcomes
        const bool taken = rng.chance(0.5)
                               ? ((ref.history & 3) == 0)
                               : rng.chance(0.5);
        dut.update(pc, taken);
        ref.update(pc, taken);
        ASSERT_EQ(dut.historyBits(), ref.history) << "step " << step;
    }
}

TEST(BpredShadow, SpeculateShiftsHistoryWithoutTrainingTables)
{
    DirectionPredictor dut(64, 32, 16);
    DirRef ref(64, 32, 16);
    Rng rng(0x5becu);
    for (int step = 0; step < 5000; step++) {
        const std::uint64_t pc = (rng.next() & 0x3ffu) << 2;
        if (rng.chance(0.3)) {
            // wrong-path style: shift by the prediction, tables alone
            const bool predicted = dut.predict(pc);
            ASSERT_EQ(predicted, ref.predict(pc));
            dut.speculate(predicted);
            ref.shift(predicted);
        } else {
            const bool taken = rng.chance(0.5);
            dut.update(pc, taken);
            ref.update(pc, taken);
        }
        ASSERT_EQ(dut.historyBits(), ref.history) << "step " << step;
    }
}

TEST(BpredShadow, HistorySetRestoreRoundTripsAfterSpeculation)
{
    DirectionPredictor dut(128, 128, 64);
    Rng rng(0x9157u);
    for (int round = 0; round < 200; round++) {
        // warm the tables on the correct path
        for (int i = 0; i < 20; i++)
            dut.update((rng.next() & 0xfffu) << 2, rng.chance(0.5));
        const std::uint64_t saved = dut.historyBits();
        // record predictions the correct path would make next
        std::vector<std::uint64_t> probePcs;
        std::vector<bool> expected;
        for (int i = 0; i < 8; i++) {
            probePcs.push_back((rng.next() & 0xfffu) << 2);
            expected.push_back(dut.predict(probePcs.back()));
        }
        // a burst of wrong-path speculation...
        for (int i = 0; i < static_cast<int>(rng.range(1, 40)); i++)
            dut.speculate(rng.chance(0.5));
        // ...then squash: history restore must bring every
        // prediction back exactly (tables were never touched)
        dut.setHistory(saved);
        ASSERT_EQ(dut.historyBits(), saved);
        for (std::size_t i = 0; i < probePcs.size(); i++)
            ASSERT_EQ(dut.predict(probePcs[i]), expected[i])
                << "round " << round << " probe " << i;
    }
}

// --------------------------------------------------------------------
// BTB vs a map-plus-recency reference
// --------------------------------------------------------------------

/** True-LRU set-associative BTB restated over std::map + use stamps. */
struct BtbRef
{
    struct Entry
    {
        std::uint64_t target = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t sets, assoc;
    /** per-set tag → entry; size capped at assoc by LRU eviction */
    std::vector<std::map<std::uint64_t, Entry>> table;
    std::uint64_t use = 0;

    BtbRef(std::size_t numEntries, std::size_t a)
        : sets(numEntries / a), assoc(a), table(sets)
    {
    }

    std::uint64_t
    lookup(std::uint64_t pc) const
    {
        const auto &set = table[(pc >> 2) % sets];
        const auto it = set.find((pc >> 2) / sets);
        return it == set.end() ? 0 : it->second.target;
    }

    void
    update(std::uint64_t pc, std::uint64_t target)
    {
        auto &set = table[(pc >> 2) % sets];
        const std::uint64_t tag = (pc >> 2) / sets;
        use++;
        const auto it = set.find(tag);
        if (it != set.end()) {
            it->second = {target, use};
            return;
        }
        if (set.size() == assoc) {
            auto victim = set.begin();
            for (auto w = set.begin(); w != set.end(); ++w)
                if (w->second.lastUse < victim->second.lastUse)
                    victim = w;
            set.erase(victim);
        }
        set[tag] = {target, use};
    }
};

TEST(BpredShadow, BtbMatchesMapReferenceUnderAliasing)
{
    // 8 sets x 2 ways and a pc pool far larger than the BTB, so tag
    // aliasing onto the same set and LRU eviction happen constantly
    Btb dut(16, 2);
    BtbRef ref(16, 2);
    Rng rng(0xb7bu);
    for (int step = 0; step < 30000; step++) {
        const std::uint64_t pc = (rng.next() & 0x1ffu) << 2;
        if (rng.chance(0.5)) {
            const std::uint64_t target = 0x4000 + (rng.next() & 0xfffu);
            dut.update(pc, target);
            ref.update(pc, target);
        }
        ASSERT_EQ(dut.lookup(pc), ref.lookup(pc)) << "step " << step;
    }
}

TEST(BpredShadow, BtbLookupIsPureEvenOnHits)
{
    // lookup must not refresh recency (it is const — the wrong-path
    // front end probes the BTB without perturbing correct-path state):
    // A and B fill a 2-way set, A is looked up many times, and C must
    // still evict A (the older *update*), not B
    Btb dut(2, 2); // one set, two ways
    const std::uint64_t a = 0x1 << 2, b = (0x1 + 1) << 2,
                        c = (0x1 + 2) << 2; // sets==1: all alias
    dut.update(a, 0xa000);
    dut.update(b, 0xb000);
    for (int i = 0; i < 100; i++)
        ASSERT_EQ(dut.lookup(a), 0xa000u);
    dut.update(c, 0xc000);
    EXPECT_EQ(dut.lookup(a), 0u) << "A must be the LRU victim";
    EXPECT_EQ(dut.lookup(b), 0xb000u);
    EXPECT_EQ(dut.lookup(c), 0xc000u);
}

// --------------------------------------------------------------------
// RAS vs a deque reference
// --------------------------------------------------------------------

/** Bounded stack over std::deque: overflow sheds the oldest entry,
 *  underflow pops 0. */
struct RasRef
{
    std::size_t cap;
    std::deque<std::uint64_t> stack; // back = top

    explicit RasRef(std::size_t c) : cap(c) {}

    void
    push(std::uint64_t pc)
    {
        stack.push_back(pc);
        if (stack.size() > cap)
            stack.pop_front(); // oldest lost
    }

    std::uint64_t
    pop()
    {
        if (stack.empty())
            return 0;
        const std::uint64_t pc = stack.back();
        stack.pop_back();
        return pc;
    }
};

TEST(BpredShadow, RasMatchesDequeReferenceIncludingOverflowUnderflow)
{
    Ras dut(4);
    RasRef ref(4);
    Rng rng(0x4a5u);
    for (int step = 0; step < 20000; step++) {
        // push-heavy and pop-heavy phases so deep overflow (many
        // sheds in a row) and repeated underflow both occur
        const double pushBias = (step / 500) % 2 == 0 ? 0.8 : 0.2;
        if (rng.chance(pushBias)) {
            const std::uint64_t pc = 0x1000 + (rng.next() & 0xffffu);
            dut.push(pc);
            ref.push(pc);
        } else {
            ASSERT_EQ(dut.pop(), ref.pop()) << "step " << step;
        }
        ASSERT_EQ(dut.depth(), ref.stack.size()) << "step " << step;
    }
}

TEST(BpredShadow, RasOverflowShedsOldestAndUnderflowReturnsZero)
{
    Ras ras(3);
    ras.push(1);
    ras.push(2);
    ras.push(3);
    ras.push(4); // overflow: 1 is shed
    EXPECT_EQ(ras.depth(), 3u);
    EXPECT_EQ(ras.pop(), 4u);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 0u) << "underflow must predict 0 (a gate)";
    EXPECT_EQ(ras.pop(), 0u) << "and stay empty";
    EXPECT_EQ(ras.depth(), 0u);
}

TEST(BpredShadow, RasSnapshotRestoreRoundTripsThroughWrongPathOps)
{
    Ras dut(4);
    RasRef ref(4);
    Rng rng(0x57acu);
    for (int round = 0; round < 500; round++) {
        // correct-path prefix
        for (int i = 0; i < static_cast<int>(rng.range(0, 6)); i++) {
            if (rng.chance(0.6)) {
                const std::uint64_t pc = rng.next() & 0xffffu;
                dut.push(pc);
                ref.push(pc);
            } else {
                ASSERT_EQ(dut.pop(), ref.pop());
            }
        }
        Ras::Snapshot snap;
        dut.save(snap);
        // wrong-path calls/returns mangle the stack arbitrarily,
        // including through overflow and underflow...
        for (int i = 0; i < static_cast<int>(rng.range(1, 10)); i++) {
            if (rng.chance(0.5))
                dut.push(rng.next() & 0xffffu);
            else
                dut.pop();
        }
        // ...and restore realigns it with the never-squashed reference
        dut.restore(snap);
        ASSERT_EQ(dut.depth(), ref.stack.size()) << "round " << round;
        // drain both to compare full contents, then rebuild
        std::vector<std::uint64_t> got, want;
        while (dut.depth() > 0)
            got.push_back(dut.pop());
        while (!ref.stack.empty())
            want.push_back(ref.pop());
        ASSERT_EQ(got, want) << "round " << round;
        for (auto it = got.rbegin(); it != got.rend(); ++it) {
            dut.push(*it);
            ref.push(*it);
        }
    }
}

// --------------------------------------------------------------------
// Facade-level snapshot round trip
// --------------------------------------------------------------------

TEST(BpredShadow, FacadeSnapshotRestoresHistoryAndRasExactly)
{
    BpredConfig cfg;
    cfg.gshareEntries = 64;
    cfg.bimodalEntries = 64;
    cfg.selectorEntries = 32;
    cfg.btbEntries = 16;
    cfg.btbAssoc = 2;
    cfg.rasEntries = 4;
    Bpred bp(cfg);
    Rng rng(0xfacadeu);
    for (int round = 0; round < 300; round++) {
        // correct-path traffic trains everything
        for (int i = 0; i < 10; i++) {
            const std::uint64_t pc = (rng.next() & 0xffu) << 2;
            bp.updateDirection(pc, rng.chance(0.5));
            if (rng.chance(0.3))
                bp.btbUpdate(pc, 0x4000 + (rng.next() & 0xffu));
            if (rng.chance(0.2))
                bp.rasPush(rng.next() & 0xffffu);
            if (rng.chance(0.2))
                bp.rasPop();
        }
        BpredSnapshot snap;
        bp.save(snap);
        std::vector<std::uint64_t> probePcs;
        std::vector<bool> dirExpected;
        std::vector<std::uint64_t> btbExpected;
        for (int i = 0; i < 8; i++) {
            probePcs.push_back((rng.next() & 0xffu) << 2);
            dirExpected.push_back(bp.predictDirection(probePcs.back()));
            btbExpected.push_back(bp.btbLookup(probePcs.back()));
        }
        // wrong-path traffic: speculate + RAS only (exactly the
        // operations the core's wrong-path fetch performs)
        for (int i = 0; i < static_cast<int>(rng.range(1, 20)); i++) {
            const int op = static_cast<int>(rng.range(0, 2));
            if (op == 0)
                bp.speculateDirection((rng.next() & 0xffu) << 2);
            else if (op == 1)
                bp.rasPush(rng.next() & 0xffffu);
            else
                bp.rasPop();
        }
        bp.restore(snap);
        for (std::size_t i = 0; i < probePcs.size(); i++) {
            ASSERT_EQ(bp.predictDirection(probePcs[i]), dirExpected[i])
                << "round " << round << " probe " << i;
            ASSERT_EQ(bp.btbLookup(probePcs[i]), btbExpected[i])
                << "round " << round << " probe " << i;
        }
    }
}

// --------------------------------------------------------------------
// Geometry: every table is indexed by masking, so sizes that are not
// powers of two (where a mask is not a modulo) are refused
// --------------------------------------------------------------------

TEST(BpredGeometry, NonPowerOfTwoSizesAreRefused)
{
    const BpredConfig ok;
    EXPECT_NO_FATAL_FAILURE({ Bpred bp(ok); });
    for (std::uint32_t BpredConfig::*field :
         {&BpredConfig::gshareEntries, &BpredConfig::bimodalEntries,
          &BpredConfig::selectorEntries}) {
        BpredConfig cfg;
        cfg.*field = 1000;
        EXPECT_DEATH({ Bpred bp(cfg); }, "must be powers of two");
    }
    BpredConfig btb;
    btb.btbEntries = 24; // 6 sets of 4 ways
    EXPECT_DEATH({ Bpred bp(btb); }, "BTB set count must be a power");
    btb.btbEntries = 32; // 8 sets: fine at any associativity
    EXPECT_NO_FATAL_FAILURE({ Bpred bp(btb); });
}

} // namespace
} // namespace siq
