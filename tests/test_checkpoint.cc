/**
 * @file
 * Tests for the distributed-execution layer (sim/checkpoint.hh):
 * shard partitioning, SweepSpec JSON round-tripping, atomic per-cell
 * checkpoints, resume-without-rerun, and the headline guarantee that
 * merging N shard directories is byte-identical to running the same
 * spec unsharded.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"

namespace siq
{
namespace
{

namespace fs = std::filesystem;

/** Spec small enough that every test stays in the smoke budget. */
sim::SweepSpec
tinySpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 2;
    spec.jobs = 2;
    return spec;
}

std::string
jsonOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

std::string
csvOf(sim::SweepResult s)
{
    sim::canonicalize(s);
    std::ostringstream os;
    sim::writeCsv(os, s);
    return os.str();
}

/** Per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("siq_ckpt_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    const fs::path path;
};

TEST(ShardPlan, ParseAndPrint)
{
    const auto plan = sim::parseShard("2/5");
    EXPECT_EQ(plan.index, 2);
    EXPECT_EQ(plan.count, 5);
    EXPECT_EQ(sim::toString(plan), "2/5");
    EXPECT_EQ(sim::parseShard("0/1"), (sim::ShardPlan{0, 1}));

    for (const char *bad :
         {"", "3", "/4", "3/", "a/4", "3/b", "1/2/3", "2/2", "-1/4",
          "1/0", "1/-2"})
        EXPECT_THROW(sim::parseShard(bad), FatalError) << bad;
}

TEST(ShardPlan, PartitionCoversEveryCellExactlyOnce)
{
    for (int count : {1, 2, 3, 7}) {
        for (std::size_t cell = 0; cell < 40; cell++) {
            int owners = 0;
            for (int i = 0; i < count; i++)
                owners += sim::ownsCell({i, count}, cell) ? 1 : 0;
            EXPECT_EQ(owners, 1)
                << "cell " << cell << " of " << count << " shards";
        }
    }
}

/** FNV-1a 64-bit: pins serialized bytes, not just self-consistency. */
std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(SpecJson, ExactRoundTrip)
{
    // non-default everything that serializes, nested configs included
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf", "vpr"};
    spec.techniques = {"noop", "abella"};
    spec.jobs = 5;
    spec.seeds = 4;
    spec.base.workload.scale = 3;
    spec.base.workload.repDivisor = 17;
    spec.base.workload.seed = 0xdeadbeefcafeull;
    spec.base.warmupInsts = 123456;
    spec.base.measureInsts = 7890123;
    spec.base.minHint = 9;
    spec.base.elideRedundant = false;
    spec.base.unrollFactor = 2;
    spec.base.core.fetchWidth = 4;
    spec.base.core.dispatchWidth = 5;
    spec.base.core.issueWidth = 6;
    spec.base.core.commitWidth = 7;
    spec.base.core.decodeDepth = 2;
    spec.base.core.fetchQueueSize = 24;
    spec.base.core.robSize = 96;
    spec.base.core.iq.numEntries = 64;
    spec.base.core.iq.bankSize = 4;
    spec.base.core.lsq.numEntries = 48;
    spec.base.core.intRegs = {96, 31, 4};
    spec.base.core.fpRegs = {100, 30, 2};
    spec.base.core.fuCounts = {7, 5, 4, 3, 2, 1};
    spec.base.core.bpred = {512, 256, 128, 1024, 2, 16};
    spec.base.core.mem.l1i = {"tiny-l1i", 16 * 1024, 1, 16, 2};
    spec.base.core.mem.l1d.sizeBytes = 32 * 1024;
    spec.base.core.mem.l1d.name = "little-l1d";
    spec.base.core.mem.l2 = {"big \"l2\"", 1 << 20, 16, 128, 12};
    spec.base.core.mem.memLatency = 87;
    spec.base.abella = {72, 112, 4, 12, 48, 4096, 2, 0.037};
    spec.base.folegnani = {72, 4, 12, 777, 9, 2};

    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    const sim::SweepSpec back = sim::readSpecJson(ss);

    EXPECT_EQ(back.benchmarks, spec.benchmarks);
    EXPECT_EQ(back.techniques, spec.techniques);
    EXPECT_EQ(back.jobs, spec.jobs);
    EXPECT_EQ(back.seeds, spec.seeds);
    EXPECT_EQ(back.base.workload.seed, spec.base.workload.seed);
    EXPECT_EQ(back.base.elideRedundant, spec.base.elideRedundant);
    EXPECT_EQ(back.base.core.fuCounts, spec.base.core.fuCounts);
    EXPECT_EQ(back.base.core.mem.l1d.name, "little-l1d");
    EXPECT_EQ(back.base.core.mem.l2.name, spec.base.core.mem.l2.name);
    EXPECT_EQ(back.base.abella.stallFractionToGrow,
              spec.base.abella.stallFractionToGrow);
    // re-serialization is the full-field equality check: every
    // serialized field is byte-identical through the round trip
    EXPECT_EQ(sim::toJson(back), sim::toJson(spec));

    // and the bytes themselves are pinned: checkpoint spec.json files
    // and serve requests written by earlier builds must still match
    EXPECT_EQ(fnv1a64(sim::toJson(spec)), 0x323d8381161801a8ull)
        << sim::toJson(spec);
    spec.base.core.specFrontEnd = true;
    const std::string specText = sim::toJson(spec);
    EXPECT_EQ(fnv1a64(specText), 0x072ffc358bca90f1ull) << specText;
    std::stringstream sfe(specText);
    EXPECT_EQ(sim::toJson(sim::readSpecJson(sfe)), specText);

    // unsigned 32-bit fields reject out-of-range values instead of
    // truncating them (2^32 + 512 would otherwise read back as 512)
    for (const char *key :
         {"sizeBytes", "assoc", "lineBytes", "gshareEntries",
          "bimodalEntries", "selectorEntries", "btbEntries",
          "btbAssoc", "rasEntries"}) {
        const std::string needle = std::string("\"") + key + "\":";
        int cases = 0;
        for (std::size_t at = specText.find(needle);
             at != std::string::npos;
             at = specText.find(needle, at + 1)) {
            const std::size_t begin = at + needle.size();
            const std::size_t end =
                specText.find_first_of(",}", begin);
            std::string bad = specText;
            bad.replace(begin, end - begin, "4294967808");
            const auto r = sim::tryReadSpecJson(bad);
            EXPECT_FALSE(r) << key << " #" << cases;
            cases++;
        }
        EXPECT_GT(cases, 0) << key;
    }
}

TEST(SpecJson, UnknownTechniqueIsFatal)
{
    auto spec = tinySpec();
    spec.techniques = {"baseline", "definitely-not-registered"};
    std::stringstream ss;
    sim::writeSpecJson(ss, spec);
    EXPECT_THROW(sim::readSpecJson(ss), FatalError);
}

TEST(CheckpointJson, RoundTripWithAndWithoutAggregate)
{
    sim::RunConfig cfg;
    cfg.workload.repDivisor = 40;
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 20000;
    const auto run = sim::runOne("gzip", cfg);

    sim::CellCheckpoint plain;
    plain.index = 7;
    plain.cell = run;
    const auto plainBack = sim::cellCheckpointFromJson(toJson(plain));
    EXPECT_EQ(plainBack.index, 7u);
    EXPECT_EQ(plainBack.seeds, 1);
    EXPECT_TRUE(sim::identicalMeasurement(plainBack.cell, run));

    sim::CellCheckpoint rep;
    rep.index = 3;
    rep.seeds = 2;
    rep.cell = run;
    rep.aggregate.n = 2;
    rep.aggregate.ipc = {1.25, 0.5, 0.75};
    rep.aggregate.stats_cycles = {40000.0, 12.5, 1e-3};
    const auto repBack = sim::cellCheckpointFromJson(toJson(rep));
    EXPECT_EQ(repBack.seeds, 2);
    EXPECT_EQ(repBack.aggregate, rep.aggregate);
    EXPECT_EQ(toJson(repBack), toJson(rep));
}

/** Every cache counter distinct and nonzero, so a swapped or dropped
 *  field shows in the bytes and in the round trip. */
sim::SweepCacheStats
distinctCacheStats()
{
    sim::SweepCacheStats c;
    c.workloadBuilds = 3;
    c.workloadHits = 17;
    c.compileBuilds = 5;
    c.compileHits = 29;
    c.traceBuilds = 7;
    c.traceHits = 41;
    c.traceEvicted = 2;
    c.traceBytes = 123456789;
    return c;
}

TEST(CacheStatsJson, PinnedBytesAndExactRoundTrip)
{
    const sim::SweepCacheStats cache = distinctCacheStats();
    const std::string text = sim::toJson(cache);
    EXPECT_EQ(fnv1a64(text), 0x8f8d0ab725e0c587ull) << text;
    EXPECT_EQ(sim::cacheStatsFromJson(text), cache);

    // the sweep report's cache block carries the same counters
    sim::SweepResult result;
    result.cache = cache;
    std::ostringstream os;
    sim::writeJson(os, result);
    std::istringstream is(os.str());
    EXPECT_EQ(sim::readJson(is).cache, cache);
}

TEST(CacheStatsJson, ReportOmitsAllZeroTraceCounters)
{
    sim::SweepResult result;
    result.cache = distinctCacheStats();
    result.cache.traceBuilds = 0;
    result.cache.traceHits = 0;
    result.cache.traceEvicted = 0;
    result.cache.traceBytes = 0;
    std::ostringstream os;
    sim::writeJson(os, result);
    EXPECT_EQ(os.str().find("trace"), std::string::npos) << os.str();
    std::istringstream is(os.str());
    EXPECT_EQ(sim::readJson(is).cache, result.cache);
}

TEST(CellHooks, FilterSkipsAndCallbackFiresOncePerCell)
{
    auto spec = tinySpec();
    spec.seeds = 3;
    std::atomic<int> calls{0};
    sim::CellHooks hooks;
    hooks.shouldRun = [](std::size_t i) { return i % 2 == 0; };
    hooks.onCellDone = [&](std::size_t i, const sim::CellKey &key,
                           const sim::RunResult &rep0,
                           const sim::CellAggregate *agg) {
        EXPECT_EQ(i % 2, 0u);
        EXPECT_EQ(key.benchmark, rep0.benchmark);
        ASSERT_NE(agg, nullptr);
        EXPECT_EQ(agg->n, 3u);
        calls++;
    };
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec, hooks);
    EXPECT_EQ(calls.load(), 2); // cells 0 and 2 of 4
    // skipped cells keep default-constructed slots
    EXPECT_TRUE(sweep.cells[1].benchmark.empty());
    EXPECT_EQ(sweep.cells[1].stats.cycles, 0u);
    EXPECT_FALSE(sweep.cells[0].benchmark.empty());
}

TEST(Checkpoint, ThreeShardMergeByteIdenticalToUnsharded)
{
    const auto spec = tinySpec();
    sim::ExperimentRunner plain;
    const auto unsharded = plain.run(spec);
    const std::string wantJson = jsonOf(unsharded);
    const std::string wantCsv = csvOf(unsharded);

    // one directory per shard, merged afterwards (the cross-host
    // workflow); a fresh runner per shard like separate processes
    ScratchDir scratch("threeshard");
    std::vector<fs::path> dirs;
    for (int i = 0; i < 3; i++) {
        sim::ExperimentRunner shardRunner;
        const fs::path dir = scratch.path / ("shard" + std::to_string(i));
        const auto outcome = sim::runWithCheckpoints(
            shardRunner, spec, {i, 3}, dir);
        EXPECT_FALSE(outcome.complete)
            << "separate dirs each hold only their own cells";
        EXPECT_EQ(outcome.cellsRun, outcome.cellsOwned);
        dirs.push_back(dir);
    }
    const auto merged = sim::mergeCheckpoints(dirs);
    EXPECT_EQ(jsonOf(merged), wantJson);
    EXPECT_EQ(csvOf(merged), wantCsv);

    // the single-shared-directory workflow: the shard that finishes
    // the matrix gets the merged result straight back
    ScratchDir shared("shareddir");
    sim::ShardRunOutcome last;
    for (int i = 0; i < 3; i++) {
        sim::ExperimentRunner shardRunner;
        last = sim::runWithCheckpoints(shardRunner, spec, {i, 3},
                                       shared.path);
    }
    EXPECT_TRUE(last.complete);
    EXPECT_EQ(jsonOf(last.merged), wantJson);
    EXPECT_EQ(csvOf(last.merged), wantCsv);
}

TEST(Checkpoint, ResumeSkipsFinishedCells)
{
    const auto spec = tinySpec();
    ScratchDir scratch("resume");

    // first pass: only shard 0/2 runs, simulating a killed run that
    // got half the matrix checkpointed
    sim::ExperimentRunner first;
    const auto partial = sim::runWithCheckpoints(first, spec, {0, 2},
                                                 scratch.path);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.cellsResumed, 0u);
    EXPECT_EQ(partial.cellsRun, partial.cellsOwned);

    // second pass: the full matrix over the same directory must only
    // simulate the cells the first pass did not finish
    sim::ExperimentRunner second;
    const auto resumed = sim::runWithCheckpoints(second, spec, {0, 1},
                                                 scratch.path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.cellsOwned, resumed.cellsTotal);
    EXPECT_EQ(resumed.cellsResumed, partial.cellsRun);
    EXPECT_EQ(resumed.cellsRun,
              resumed.cellsTotal - partial.cellsRun);
    // the workload cache confirms no re-simulation: shard 0/2 owns
    // the two gzip cells, so the resume pass only ever built the two
    // mcf replica programs
    EXPECT_EQ(second.cacheStats().workloadBuilds, 2u);

    sim::ExperimentRunner plain;
    EXPECT_EQ(jsonOf(resumed.merged), jsonOf(plain.run(spec)));
}

TEST(Checkpoint, MismatchedSpecIsFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("mismatch");
    sim::initRunDir(scratch.path, spec);

    auto other = spec;
    other.base.measureInsts = 999999;
    EXPECT_THROW(sim::initRunDir(scratch.path, other), FatalError);
    sim::ExperimentRunner runner;
    EXPECT_THROW(sim::runWithCheckpoints(runner, other, {0, 1},
                                         scratch.path),
                 FatalError);
}

TEST(Checkpoint, JobsAreSchedulingNotIdentity)
{
    auto spec = tinySpec();
    ScratchDir scratch("jobsid");
    sim::initRunDir(scratch.path, spec);
    spec.jobs = 16; // resuming with a different worker count is fine
    EXPECT_NO_THROW(sim::initRunDir(scratch.path, spec));
}

TEST(Checkpoint, LeftoverTmpFilesAreInvisible)
{
    const auto spec = tinySpec();
    ScratchDir scratch("tmpfiles");
    sim::initRunDir(scratch.path, spec);
    // a kill mid-write leaves a .tmp the atomic-rename protocol never
    // published; scans and merges must not see it
    std::ofstream(scratch.path / "cells" /
                  (sim::checkpointFileName(spec, 0) + ".tmp"))
        << "half-writ";
    const auto have = sim::scanCheckpoints(scratch.path, spec);
    for (bool h : have)
        EXPECT_FALSE(h);
}

TEST(Checkpoint, CorruptOrConflictingCheckpointsAreFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("corrupt");
    sim::ExperimentRunner runner;
    const auto outcome = sim::runWithCheckpoints(runner, spec, {0, 1},
                                                 scratch.path);
    ASSERT_TRUE(outcome.complete);

    // corrupt one published checkpoint: merge must refuse loudly
    // rather than silently re-running or mixing garbage
    const fs::path victim =
        scratch.path / "cells" / sim::checkpointFileName(spec, 1);
    {
        std::ofstream os(victim, std::ios::trunc);
        os << "{\"not\":\"a checkpoint\"}";
    }
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path}), FatalError);

    // conflicting duplicate across two dirs: also fatal
    ScratchDir copy("conflict");
    fs::create_directories(copy.path);
    fs::copy(scratch.path, copy.path, fs::copy_options::recursive);
    sim::ExperimentRunner again;
    // heal the corrupt copy in dir 1 by re-running just that cell
    fs::remove(victim);
    sim::CellHooks hooks;
    hooks.shouldRun = [](std::size_t i) { return i == 1; };
    hooks.onCellDone = [&](std::size_t i, const sim::CellKey &,
                           const sim::RunResult &rep0,
                           const sim::CellAggregate *agg) {
        sim::CellCheckpoint ckpt;
        ckpt.index = i;
        ckpt.seeds = agg ? static_cast<int>(agg->n) : 1;
        ckpt.cell = rep0;
        if (agg)
            ckpt.aggregate = *agg;
        sim::writeCellCheckpoint(scratch.path, spec, ckpt);
    };
    again.run(spec, hooks);
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path, copy.path}),
                 FatalError);
}

TEST(Checkpoint, TruncatedCheckpointIsReRunNotMerged)
{
    // a power cut after rename but before the data hit disk can leave
    // a published checkpoint truncated; resume must treat it as
    // missing and re-simulate that one cell, never merge garbage
    const auto spec = tinySpec();
    ScratchDir scratch("truncated");
    sim::ExperimentRunner first;
    const auto full = sim::runWithCheckpoints(first, spec, {0, 1},
                                              scratch.path);
    ASSERT_TRUE(full.complete);

    const fs::path victim =
        scratch.path / "cells" / sim::checkpointFileName(spec, 2);
    const auto size = fs::file_size(victim);
    fs::resize_file(victim, size / 2);

    // the scan sees every cell except the damaged one
    const auto have = sim::scanCheckpoints(scratch.path, spec);
    ASSERT_EQ(have.size(), 4u);
    for (std::size_t i = 0; i < have.size(); i++)
        EXPECT_EQ(have[i], i != 2u) << "cell " << i;

    // resume re-runs exactly that cell and the merge is byte-equal
    // to an unsharded run
    sim::ExperimentRunner second;
    const auto resumed = sim::runWithCheckpoints(second, spec, {0, 1},
                                                 scratch.path);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.cellsRun, 1u);
    EXPECT_EQ(resumed.cellsResumed, 3u);
    sim::ExperimentRunner plain;
    EXPECT_EQ(jsonOf(resumed.merged), jsonOf(plain.run(spec)));
}

TEST(Checkpoint, StaleTmpFilesOfDeadProcessesAreReaped)
{
    const auto spec = tinySpec();
    ScratchDir scratch("staletmp");
    sim::initRunDir(scratch.path, spec);
    const fs::path cells = scratch.path / "cells";
    fs::create_directories(cells);

    // 99999999 exceeds the kernel's pid_max; kill(pid, 0) => ESRCH,
    // so the scan classifies its leftovers as a crashed shard's
    const fs::path dead =
        cells / (sim::checkpointFileName(spec, 0) + ".tmp.99999999.0");
    // our own pid is alive: a concurrent shard mid-write, keep it
    const fs::path live =
        cells / (sim::checkpointFileName(spec, 1) + ".tmp." +
                 std::to_string(::getpid()) + ".0");
    // unparseable pid field: leave it alone rather than guess
    const fs::path odd =
        cells / (sim::checkpointFileName(spec, 2) + ".tmp.x.0");
    for (const auto &p : {dead, live, odd})
        std::ofstream(p) << "half-writ";

    const auto have = sim::scanCheckpoints(scratch.path, spec);
    for (bool h : have)
        EXPECT_FALSE(h); // tmp files are never published cells
    EXPECT_FALSE(fs::exists(dead));
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(fs::exists(odd));
}

TEST(Checkpoint, MissingCellsAreFatal)
{
    const auto spec = tinySpec();
    ScratchDir scratch("missing");
    sim::ExperimentRunner runner;
    sim::runWithCheckpoints(runner, spec, {0, 2}, scratch.path);
    EXPECT_THROW(sim::mergeCheckpoints({scratch.path}), FatalError);
}

} // namespace
} // namespace siq
