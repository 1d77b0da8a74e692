/**
 * @file
 * Regression tests for the trace cache's handle-lifetime contract
 * (sim/trace_cache.hh): handles co-own their traces and must survive
 * cache destruction, and the running resident-bytes counter must stay
 * exact under concurrent get/touch/release churn. Run these under
 * ASan/TSan — the bugs they pin down are use-after-free and counter
 * races, which only the sanitizers surface reliably.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "cpu/trace.hh"
#include "sim/trace_cache.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

std::shared_ptr<const Program>
generateShared(const std::string &bench, std::uint64_t seed = 12345)
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40; // shrink loop trip counts: tests, not figures
    wp.seed = seed;
    return std::make_shared<const Program>(
        workloads::generate(bench, wp));
}

/** Force production of a prefix so the trace owns chunk bytes, and
 *  read it back through the trace's PC table. */
std::uint64_t
touch(const std::shared_ptr<FuncTrace> &trace, std::size_t upTo = 64)
{
    TraceCursor cur(trace.get());
    const PcTable &pcs = trace->pcTable();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < upTo; i++) {
        const TraceRecord &r = cur.at(i);
        sum += recordNextPc(r, pcs.at(r.entry()));
        if (r.halted())
            break;
    }
    return sum;
}

TEST(TraceCacheLifetime, HandlesOutliveTheCache)
{
    // a serve-daemon restart destroys the cache while tenant workers
    // still hold trace handles; those traces must stay alive (and the
    // late releases must not touch freed cache state)
    auto cache = std::make_unique<sim::TraceCache>(512ull << 20);
    auto gzip = cache->get(generateShared("gzip"));
    auto mcf = cache->get(generateShared("mcf"));
    const std::uint64_t before = touch(gzip);
    ASSERT_TRUE(gzip && mcf);

    cache.reset(); // destroy with two live handles (warns, not fatal)

    // handles still read and still produce: the trace is co-owned
    EXPECT_EQ(touch(gzip), before);
    EXPECT_GT(touch(mcf, 256), 0u);
    gzip.reset(); // late deleters find the cache state expired
    mcf.reset();
}

TEST(TraceCacheLifetime, RebuildAfterEvictionIsIndependent)
{
    // an evicted-but-pinned scenario: the cache drops its slot (cap
    // exceeded) while a handle pins the trace; a later get must build
    // a fresh trace without disturbing the orphaned one
    sim::TraceCache cache(1); // everything is over this cap
    auto prog = generateShared("gzip");
    auto first = cache.get(prog);
    touch(first);
    auto second = cache.get(prog); // same entry while pinned
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.hits(), 1u);
    first.reset();
    second.reset(); // last release: entry evicted (over cap)
    EXPECT_EQ(cache.pinnedEntries(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);

    auto rebuilt = cache.get(prog);
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_GT(touch(rebuilt), 0u);
}

TEST(TraceCacheLifetime, FourThreadHammerKeepsAccountingExact)
{
    // four threads churn get/touch/release over four programs with a
    // cap small enough to evict constantly; under TSan this exercises
    // the release/enforceCap/refreshBytes lock discipline, under ASan
    // the deleter-after-evict path
    sim::TraceCache cache(64 << 10);
    const std::vector<std::shared_ptr<const Program>> progs = {
        generateShared("gzip"), generateShared("mcf"),
        generateShared("crafty"), generateShared("vpr")};

    constexpr int kIters = 40;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; i++) {
                auto h = cache.get(progs[(t + i) % progs.size()]);
                touch(h, 32 + static_cast<std::size_t>(i));
                if (i % 3 == 0) {
                    // overlapping pins on the same entry
                    auto again =
                        cache.get(progs[(t + i) % progs.size()]);
                    EXPECT_EQ(h.get(), again.get());
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    // drained: every pin released, counter exact, cap enforced
    EXPECT_EQ(cache.pinnedEntries(), 0u);
    EXPECT_LE(cache.residentBytes(), 64u << 10);
    // every get either hit or built
    EXPECT_EQ(cache.builds() + cache.hits(),
              static_cast<std::uint64_t>(4 * kIters +
                                         4 * ((kIters + 2) / 3)));
}

} // namespace
} // namespace siq
