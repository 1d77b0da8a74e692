/**
 * @file
 * Tests for the simulation service (sim/serve.hh): malformed-request
 * recovery, cross-request in-flight dedupe, cancellation draining,
 * and the byte-identity of a streamed export with a batch run.
 *
 * The concurrency tests gate a test-local workload family's generator
 * on a condition variable: with jobs=1 the engine's single worker
 * provably sits inside the generator while the test lines up a second
 * client or a cancel, making the dedupe/drain outcomes deterministic
 * rather than timing-dependent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "sim/report.hh"
#include "sim/serve.hh"
#include "sim/sweep.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

sim::SweepSpec
baseSpec(std::vector<std::string> benches)
{
    sim::SweepSpec spec;
    spec.benchmarks = std::move(benches);
    spec.techniques = {"baseline"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 1;
    spec.jobs = 1;
    return spec;
}

std::string
requestLine(const std::string &id, const sim::SweepSpec &spec)
{
    std::string sj = sim::toJson(spec);
    while (!sj.empty() && sj.back() == '\n')
        sj.pop_back();
    return "{\"id\":" + json::quote(id) + ",\"spec\":" + sj + "}";
}

std::string
jsonOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

/** Drain a finished client's stream into parsed records. */
std::vector<json::Value>
drain(sim::ServeEngine::Client &client)
{
    std::vector<json::Value> recs;
    std::string line;
    while (client.nextRecord(line))
        recs.push_back(json::parse(line));
    return recs;
}

const json::Value &
field(const json::Value &rec, const std::string &key)
{
    return rec.at(key);
}

std::string
eventOf(const json::Value &rec)
{
    return field(rec, "event").asString();
}

/** One-shot gate a family generator blocks on; `entered` tells the
 *  test the worker is provably inside the generator. */
struct Gate
{
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> entered{0};

    void
    pass()
    {
        entered.fetch_add(1);
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return open; });
    }

    void
    release()
    {
        std::lock_guard lock(mu);
        open = true;
        cv.notify_all();
    }

    void
    awaitEntered(int n)
    {
        while (entered.load() < n)
            std::this_thread::yield();
    }
};

/** Register `serve-gate`: gzip's generator behind @p gate. */
workloads::FamilyDef
gatedFamily(Gate &gate)
{
    workloads::FamilyDef def;
    def.name = "serve-gate";
    def.summary = "gzip gated on a test condition variable";
    def.generate = [&gate](const workloads::WorkloadParams &wp,
                           const workloads::FamilyParams &) {
        gate.pass();
        return workloads::genGzip(wp);
    };
    return def;
}

TEST(Serve, MalformedRequestsRecoverPerClient)
{
    sim::ServeEngine engine({});
    auto client = engine.connect();

    client->submitLine("{\"bad json");
    client->submitLine("[1,2,3]");
    client->submitLine("{\"id\":\"r0\"}");
    client->submitLine(
        "{\"id\":\"rx\",\"spec\":{\"benchmarks\":[\"nosuch\"],"
        "\"techniques\":[\"baseline\"]}}");
    // a spec must state its replica count: "seeds":0 is refused
    auto seedless = baseSpec({"gzip"});
    seedless.seeds = 0;
    client->submitLine(requestLine("rs", seedless));
    // the same client's next request must still run to completion
    const auto spec = baseSpec({"gzip"});
    client->submitLine(requestLine("r1", spec));
    client->endOfInput();

    const auto recs = drain(*client);
    ASSERT_EQ(recs.size(), 8u);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(eventOf(recs[i]), "error") << i;
    // unattributable garbage carries a null id
    EXPECT_EQ(field(recs[0], "id").kind, json::Value::Kind::Null);
    EXPECT_EQ(field(recs[3], "id").asString(), "rx");
    EXPECT_EQ(field(recs[4], "id").asString(), "rs");
    EXPECT_NE(field(recs[4], "error").asString().find("--seeds"),
              std::string::npos);

    EXPECT_EQ(eventOf(recs[5]), "accepted");
    EXPECT_EQ(field(recs[5], "id").asString(), "r1");
    EXPECT_EQ(field(recs[5], "cells").asU64(), 1u);
    EXPECT_EQ(eventOf(recs[6]), "cell");
    EXPECT_EQ(eventOf(recs[7]), "done");
    EXPECT_EQ(field(recs[7], "cellsSimulated").asU64(), 1u);
    EXPECT_EQ(field(recs[7], "cancelled").asBool(), false);

    // the streamed export is byte-identical to a batch run
    sim::ExperimentRunner plain;
    EXPECT_EQ(field(recs[7], "export").asString(),
              jsonOf(plain.run(spec)));

    EXPECT_EQ(engine.stats().errors, 5u);
    EXPECT_EQ(engine.stats().requests, 1u);
}

/** The trace-cache cap is the one environment setting the engine
 *  reads; a malformed value stops a daemon at construction, before it
 *  accepts a request. */
TEST(Serve, MalformedTraceCapRefusedAtConstruction)
{
    ASSERT_EQ(setenv("SIQSIM_TRACE_CACHE_MB", "abc", 1), 0);
    EXPECT_THROW(sim::ServeEngine engine({}), FatalError);
    ASSERT_EQ(unsetenv("SIQSIM_TRACE_CACHE_MB"), 0);
    sim::ServeEngine engine({}); // the default cap constructs
}

TEST(Serve, DuplicateIdIsRejectedWhileInFlight)
{
    Gate gate;
    workloads::ScopedFamily scoped(gatedFamily(gate));
    sim::ServeEngine engine({});
    auto client = engine.connect();

    const auto spec = baseSpec({"serve-gate"});
    client->submitLine(requestLine("dup", spec));
    gate.awaitEntered(1);
    client->submitLine(requestLine("dup", spec));
    gate.release();
    client->endOfInput();

    const auto recs = drain(*client);
    // accepted, then the duplicate's error, then cell + done
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(eventOf(recs[0]), "accepted");
    EXPECT_EQ(eventOf(recs[1]), "error");
    EXPECT_EQ(field(recs[1], "id").asString(), "dup");
    EXPECT_EQ(eventOf(recs[3]), "done");
}

TEST(Serve, ConcurrentClientsShareOneInFlightCell)
{
    Gate gate;
    workloads::ScopedFamily scoped(gatedFamily(gate));
    sim::ServeEngine::Options opts;
    opts.resultCacheCap = 0; // force the in-flight path, not the LRU
    sim::ServeEngine engine(opts);

    // client A sweeps {serve-gate, gzip}; jobs=1 means its single
    // worker blocks inside serve-gate's generator while the gzip cell
    // is claimed-but-unstarted — exactly when client B asks for gzip
    const auto specA = baseSpec({"serve-gate", "gzip"});
    const auto specB = baseSpec({"gzip"});

    auto a = engine.connect();
    auto b = engine.connect();
    a->submitLine(requestLine("a", specA));
    gate.awaitEntered(1);
    b->submitLine(requestLine("b", specB));
    b->endOfInput();

    // B's upfront pass attaches to A's claimed gzip flight and then
    // blocks until A simulates it; release the gate and drain B first
    // to prove the fan-out path (not B's own simulation) feeds it
    gate.release();
    const auto recsB = drain(*b);
    a->endOfInput();
    const auto recsA = drain(*a);

    ASSERT_EQ(recsB.size(), 3u);
    EXPECT_EQ(eventOf(recsB[1]), "cell");
    EXPECT_EQ(eventOf(recsB[2]), "done");
    EXPECT_EQ(field(recsB[2], "cellsSimulated").asU64(), 0u);
    EXPECT_EQ(field(recsB[2], "cellsShared").asU64(), 1u);

    ASSERT_EQ(recsA.size(), 4u);
    EXPECT_EQ(eventOf(recsA[3]), "done");
    EXPECT_EQ(field(recsA[3], "cellsSimulated").asU64(), 2u);

    const auto s = engine.stats();
    EXPECT_EQ(s.cellsSimulated, 2u);
    EXPECT_EQ(s.cellsShared, 1u);
    EXPECT_EQ(s.cellsCached, 0u);

    // both exports are byte-identical to batch runs of their specs
    sim::ExperimentRunner plain;
    EXPECT_EQ(field(recsB[2], "export").asString(),
              jsonOf(plain.run(specB)));
    EXPECT_EQ(field(recsA[3], "export").asString(),
              jsonOf(plain.run(specA)));
}

TEST(Serve, CompletedCellsServeFromTheResultCache)
{
    sim::ServeEngine engine({});
    auto client = engine.connect();
    const auto spec = baseSpec({"gzip"});
    client->submitLine(requestLine("r1", spec));
    // r1 has fully drained by the time r2 parses, so r2's only cell
    // must come from the completed-cell LRU without simulating
    std::string line;
    std::vector<json::Value> recs;
    while (recs.size() < 3 && client->nextRecord(line))
        recs.push_back(json::parse(line));
    ASSERT_EQ(recs.size(), 3u);
    ASSERT_EQ(eventOf(recs[2]), "done");

    client->submitLine(requestLine("r2", spec));
    client->endOfInput();
    const auto rest = drain(*client);
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(eventOf(rest[2]), "done");
    EXPECT_EQ(field(rest[2], "cellsSimulated").asU64(), 0u);
    EXPECT_EQ(field(rest[2], "cellsCached").asU64(), 1u);
    EXPECT_EQ(field(rest[2], "export").asString(),
              field(recs[2], "export").asString());
    EXPECT_EQ(engine.stats().cellsSimulated, 1u);
    EXPECT_EQ(engine.stats().cellsCached, 1u);
}

TEST(Serve, OversizedRequestLineGetsAnErrorRecord)
{
    sim::ServeEngine engine({});
    auto client = engine.connect();
    // 16 MiB + 1 of garbage: rejected by the size cap before the
    // JSON parser ever sees it
    client->submitLine(std::string((16u << 20) + 1, 'x'));
    client->endOfInput();
    const auto recs = drain(*client);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(eventOf(recs[0]), "error");
    EXPECT_NE(field(recs[0], "error").asString().find("exceeds"),
              std::string::npos);
    EXPECT_EQ(engine.stats().errors, 1u);
}

TEST(Serve, CancelWithReplicaWorkersDrainsEachCellOnce)
{
    // seeds=2, jobs=2: both workers are inside cell 0's replicas
    // when the cancel lands, and afterwards both hit cell 1's
    // shouldRun near-simultaneously — the execution-time drain
    // decision must be made exactly once (no double-counted
    // nCancelled, no torn plan/flight state)
    Gate gate;
    workloads::ScopedFamily scoped(gatedFamily(gate));
    sim::ServeEngine engine({});
    auto client = engine.connect();

    auto spec = baseSpec({"serve-gate", "gzip"});
    spec.seeds = 2;
    spec.jobs = 2;
    client->submitLine(requestLine("c1", spec));
    gate.awaitEntered(1);
    client->submitLine("{\"cancel\":\"c1\"}");
    gate.release();
    client->endOfInput();

    const auto recs = drain(*client);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(eventOf(recs[0]), "accepted");
    EXPECT_EQ(eventOf(recs[1]), "done");
    EXPECT_EQ(field(recs[1], "cancelled").asBool(), true);
    EXPECT_EQ(field(recs[1], "cellsSimulated").asU64(), 1u);
    EXPECT_EQ(field(recs[1], "cellsCancelled").asU64(), 1u);
    EXPECT_EQ(engine.stats().cellsCancelled, 1u);
}

TEST(Serve, SlowWaiterIsHardClosedNotStalledOn)
{
    // B attaches to A's in-flight gzip cell but never reads its
    // stream; with queueCap=1 its queue is already full (accepted
    // record), so A's fan-out must time out and hard-close B instead
    // of parking A's worker forever (pre-fix this test hangs)
    Gate gate;
    workloads::ScopedFamily scoped(gatedFamily(gate));
    sim::ServeEngine::Options opts;
    opts.queueCap = 1;
    opts.resultCacheCap = 0;
    opts.fanoutWaitMs = 50;
    sim::ServeEngine engine(opts);

    const auto specA = baseSpec({"serve-gate", "gzip"});
    const auto specB = baseSpec({"gzip"});
    auto a = engine.connect();
    auto b = engine.connect();
    a->submitLine(requestLine("a", specA));
    gate.awaitEntered(1); // A's up-front pass claimed both cells
    b->submitLine(requestLine("b", specB));
    gate.release();
    a->endOfInput();

    // A must run to completion even though B never drains
    const auto recsA = drain(*a);
    ASSERT_EQ(recsA.size(), 4u);
    EXPECT_EQ(eventOf(recsA[3]), "done");
    EXPECT_EQ(field(recsA[3], "cellsSimulated").asU64(), 2u);

    // B was hard-closed: its queue is discarded and just ends
    const auto recsB = drain(*b);
    EXPECT_TRUE(recsB.empty());
    // B's request thread adds its counters to the engine stats when
    // it finishes, which can be after its queue ended; ~Client joins
    // it, so the read below cannot race it
    b.reset();
    EXPECT_EQ(engine.stats().cellsShared, 1u);
}

TEST(Serve, SequentialRequestsReapFinishedThreads)
{
    // a long-lived connection submitting many requests must not
    // accumulate joinable threads: each submitLine reaps the
    // previous requests' handles (asserted structurally by TSan /
    // ASan cleanliness; functionally every request still completes)
    sim::ServeEngine engine({});
    auto client = engine.connect();
    const auto spec = baseSpec({"gzip"});
    std::string line;
    std::size_t done = 0;
    for (int r = 0; r < 6; r++) {
        client->submitLine(requestLine("r" + std::to_string(r),
                                       spec));
        while (client->nextRecord(line)) {
            if (json::parse(line).at("event").asString() == "done") {
                done++;
                break;
            }
        }
    }
    client->endOfInput();
    // the queue closes only after the last request added its counters
    // to the engine stats: drain it before reading them
    EXPECT_TRUE(drain(*client).empty());
    EXPECT_EQ(done, 6u);
    EXPECT_EQ(engine.stats().cellsSimulated, 1u);
    EXPECT_EQ(engine.stats().cellsCached, 5u);
}

TEST(Serve, CancelDrainsUnstartedCellsAndSuppressesExport)
{
    Gate gate;
    workloads::ScopedFamily scoped(gatedFamily(gate));
    sim::ServeEngine engine({});
    auto client = engine.connect();

    // jobs=1: the worker blocks inside cell 0 (serve-gate) while
    // cell 1 (gzip) is claimed but unstarted. Cancelling now must let
    // cell 0 finish (it is already executing) and drain cell 1.
    const auto spec = baseSpec({"serve-gate", "gzip"});
    client->submitLine(requestLine("c1", spec));
    gate.awaitEntered(1);
    client->submitLine("{\"cancel\":\"c1\"}");
    gate.release();
    client->endOfInput();

    const auto recs = drain(*client);
    // cancelled requests stream no cell records and no export
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(eventOf(recs[0]), "accepted");
    EXPECT_EQ(eventOf(recs[1]), "done");
    EXPECT_EQ(field(recs[1], "cancelled").asBool(), true);
    EXPECT_EQ(field(recs[1], "cellsSimulated").asU64(), 1u);
    EXPECT_EQ(field(recs[1], "cellsCancelled").asU64(), 1u);
    EXPECT_EQ(recs[1].find("export"), nullptr)
        << "cancelled done record must not carry an export";

    EXPECT_EQ(engine.stats().cellsCancelled, 1u);
    EXPECT_EQ(engine.stats().cellsSimulated, 1u);

    // cancelling an unknown id is an error record, not a crash
    auto late = engine.connect();
    late->submitLine("{\"cancel\":\"c1\"}");
    late->endOfInput();
    const auto lateRecs = drain(*late);
    ASSERT_EQ(lateRecs.size(), 1u);
    EXPECT_EQ(eventOf(lateRecs[0]), "error");
}

} // namespace
} // namespace siq
