/**
 * @file
 * Tests for the experiment engine: the technique table, the
 * threaded sweep runner's determinism (bit-identical to serial
 * runOne), exact cache accounting, and JSON/CSV round-tripping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/stats.hh"
#include "sim/fields.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

using sim::Technique;

const std::vector<std::string> someBenches = {"gzip", "mcf", "vortex"};
const std::vector<std::string> someTechs = {"baseline", "noop",
                                            "abella"};

sim::SweepSpec
smallSpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = someBenches;
    spec.techniques = someTechs;
    spec.base.workload.repDivisor = 8;
    spec.base.warmupInsts = 5000;
    spec.base.measureInsts = 60000;
    return spec;
}

/** Canonical form: byte-level comparisons only see measurements (the
 *  one legitimate run-to-run difference is wall-clock metadata). */
sim::SweepResult
normalized(sim::SweepResult s)
{
    sim::canonicalize(s);
    return s;
}

std::string
jsonOf(const sim::SweepResult &s)
{
    std::ostringstream os;
    sim::writeJson(os, s);
    return os.str();
}

/** One CSV line split on commas (exports hold no quoted fields). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells(1);
    for (const char c : line) {
        if (c == ',')
            cells.emplace_back();
        else
            cells.back() += c;
    }
    return cells;
}

std::string
exact(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The CSV writer against the JSON reader (JSON is the one reader):
 * the header is exactly the columns the SIQ_*_FIELDS lists name, and
 * every row holds, digit for digit, the values readJson recovers for
 * its cell. Oracle-mode sweeps only: no speculation columns.
 */
void
expectCsvMatchesJson(const sim::SweepResult &sweep)
{
    std::stringstream js(jsonOf(sweep));
    const sim::SweepResult back = sim::readJson(js);
    const bool agg = !back.aggregates.empty();

    std::vector<std::string> cols = {"benchmark", "technique", "family"};
#define X(f) cols.push_back(#f);
    SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) cols.push_back("stats_" #f);
    SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f) cols.push_back("iq_" #f);
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f) cols.push_back("compile_" #f);
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    if (agg) {
        std::vector<std::string> metrics = {"ipc"};
#define X(f) metrics.push_back("stats_" #f);
        SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f) metrics.push_back("iq_" #f);
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
        cols.push_back("n");
        for (const std::string &m : metrics) {
            for (const char *suffix : {"_mean", "_stddev", "_ci95"})
                cols.push_back(m + suffix);
        }
    }

    std::stringstream csv;
    sim::writeCsv(csv, sweep);
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    ASSERT_EQ(splitCsv(line), cols);
    for (std::size_t i = 0; i < back.cells.size(); i++) {
        ASSERT_TRUE(std::getline(csv, line)) << "row " << i;
        const std::vector<std::string> vals = splitCsv(line);
        ASSERT_EQ(vals.size(), cols.size()) << "row " << i;
        std::size_t col = 0;
        const auto next = [&]() -> const std::string & {
            return vals[col++];
        };
        const sim::RunResult &c = back.cells[i];
        EXPECT_EQ(next(), c.benchmark);
        EXPECT_EQ(next(), c.technique);
        EXPECT_EQ(next(), sim::techniqueName(c.tech));
#define X(f) EXPECT_EQ(next(), exact(c.f)) << "row " << i << " " #f;
        SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) EXPECT_EQ(next(), exact(c.stats.f)) << "row " << i << " " #f;
        SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f) EXPECT_EQ(next(), exact(c.iq.f)) << "row " << i << " " #f;
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f)                                                             \
    EXPECT_EQ(next(), exact(static_cast<std::uint64_t>(c.compile.f)))    \
        << "row " << i << " " #f;
        SIQ_COMPILE_STATS_FIELDS(X)
#undef X
        if (agg) {
            const sim::CellAggregate &a = back.aggregates[i];
            const auto metric = [&](const sim::MetricAggregate &m) {
                for (const double v : {m.mean, m.stddev, m.ci95})
                    EXPECT_EQ(next(), exact(v)) << "row " << i;
            };
            EXPECT_EQ(next(), exact(a.n));
            metric(a.ipc);
#define X(f) metric(a.stats_##f);
            SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f) metric(a.iq_##f);
            SIQ_IQ_EVENT_FIELDS(X)
#undef X
        }
    }
    EXPECT_FALSE(std::getline(csv, line)) << "extra row: " << line;
}

TEST(TechniqueRegistry, BuiltinsAreRegistered)
{
    const auto names = sim::techniqueNames();
    for (const char *name : {"baseline", "noop", "extension",
                             "improved", "abella", "folegnani"}) {
        EXPECT_NE(sim::findTechnique(name), nullptr) << name;
        bool listed = false;
        for (const auto &n : names)
            listed = listed || n == name;
        EXPECT_TRUE(listed) << name;
    }
    EXPECT_EQ(sim::findTechnique("no-such-technique"), nullptr);
}

TEST(TechniqueRegistry, EnumNameRoundTrip)
{
    for (auto tech :
         {Technique::Baseline, Technique::Noop, Technique::Extension,
          Technique::Improved, Technique::Abella,
          Technique::Folegnani}) {
        const auto back =
            sim::techniqueFromName(sim::techniqueName(tech));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, tech);
        EXPECT_EQ(sim::techniqueDef(tech).name,
                  sim::techniqueName(tech));
    }
    EXPECT_FALSE(sim::techniqueFromName("nope").has_value());
}

TEST(TechniqueRegistry, FactoriesMatchLegacyMapping)
{
    sim::RunConfig cfg;
    EXPECT_FALSE(
        sim::compilerConfigFor(Technique::Baseline, cfg).has_value());
    EXPECT_FALSE(
        sim::compilerConfigFor(Technique::Abella, cfg).has_value());
    const auto noop = sim::compilerConfigFor(Technique::Noop, cfg);
    ASSERT_TRUE(noop.has_value());
    EXPECT_EQ(noop->scheme, compiler::HintScheme::Noop);
    EXPECT_FALSE(noop->interprocFu);
    const auto ext = sim::compilerConfigFor(Technique::Extension, cfg);
    ASSERT_TRUE(ext.has_value());
    EXPECT_EQ(ext->scheme, compiler::HintScheme::Tag);
    EXPECT_FALSE(ext->interprocFu);
    const auto improved =
        sim::compilerConfigFor(Technique::Improved, cfg);
    ASSERT_TRUE(improved.has_value());
    EXPECT_EQ(improved->scheme, compiler::HintScheme::Tag);
    EXPECT_TRUE(improved->interprocFu);

    // every compiler knob and the machine mirror reach all three
    // hint schemes: the ablations sweep these RunConfig fields
    // instead of registering technique variants
    cfg.minHint = 16;
    cfg.elideRedundant = false;
    cfg.unrollFactor = 7;
    cfg.core.issueWidth = 4;
    cfg.core.iq.numEntries = 48;
    cfg.core.fuCounts[static_cast<int>(FuClass::IntAlu)] = 3;
    cfg.core.mem.l1d.hitLatency = 5;
    for (auto tech :
         {Technique::Noop, Technique::Extension, Technique::Improved}) {
        const auto cc = sim::compilerConfigFor(tech, cfg);
        ASSERT_TRUE(cc.has_value()) << sim::techniqueName(tech);
        EXPECT_EQ(cc->minHint, 16);
        EXPECT_FALSE(cc->elideRedundant);
        EXPECT_EQ(cc->unrollFactor, 7);
        EXPECT_EQ(cc->machine.issueWidth, 4);
        EXPECT_EQ(cc->machine.iqSize, 48);
        EXPECT_EQ(cc->machine.fuCounts, cfg.core.fuCounts);
        EXPECT_EQ(cc->machine.l1dHitLatency, 5);
    }

    // a noop sweep with base.minHint = 16 is the old "noop-floor16"
    // variant: annotate with the default config's cc, floor raised
    sim::SweepSpec spec;
    spec.benchmarks = {"vortex"};
    spec.techniques = {"noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 1;
    const sim::RunConfig defaults = spec.base;
    spec.base.minHint = 16;
    sim::ExperimentRunner runner(1);
    const auto floored = runner.run(spec).cells.at(0);

    Program prog = workloads::generate("vortex", defaults.workload);
    auto cc = *sim::compilerConfigFor(Technique::Noop, defaults);
    cc.minHint = 16;
    const auto compile = compiler::annotate(prog, cc);
    const auto direct = sim::simulateProgram(
        prog, sim::techniqueDef(Technique::Noop), defaults);
    EXPECT_EQ(floored.stats, direct.stats);
    EXPECT_EQ(floored.iq, direct.iq);
    EXPECT_EQ(floored.compile.hintNoopsInserted,
              compile.hintNoopsInserted);

    spec.base.minHint = defaults.minHint;
    const auto plain = runner.run(spec).cells.at(0);
    EXPECT_FALSE(plain.stats == direct.stats && plain.iq == direct.iq)
        << "a 16-entry hint floor should change the noop cell";
}

TEST(ExperimentRunner, ThreadedIsBitIdenticalToSerial)
{
    auto spec = smallSpec();
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    ASSERT_EQ(sweep.cells.size(), 9u);
    EXPECT_EQ(sweep.jobsUsed, 4);

    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        for (std::size_t b = 0; b < spec.benchmarks.size(); b++) {
            sim::RunConfig cfg = spec.base;
            cfg.tech = *sim::techniqueFromName(spec.techniques[t]);
            const auto serial =
                sim::runOne(spec.benchmarks[b], cfg);
            const auto &cell = sweep.at(t, b);
            EXPECT_EQ(cell.benchmark, spec.benchmarks[b]);
            EXPECT_EQ(cell.technique, spec.techniques[t]);
            EXPECT_TRUE(sim::identicalMeasurement(serial, cell))
                << spec.benchmarks[b] << "/" << spec.techniques[t];
        }
    }
}

TEST(ExperimentRunner, JobsCountDoesNotChangeResults)
{
    auto spec = smallSpec();
    spec.jobs = 1;
    sim::ExperimentRunner serialRunner;
    const auto serial = serialRunner.run(spec);

    spec.jobs = 7;
    sim::ExperimentRunner threadedRunner;
    const auto threaded = threadedRunner.run(spec);

    ASSERT_EQ(serial.cells.size(), threaded.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(serial.cells[i],
                                              threaded.cells[i]))
            << "cell " << i;
    }
}

TEST(ExperimentRunner, WorkloadsAreBuiltExactlyOnce)
{
    auto spec = smallSpec();
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    // 9 cells over 3 benchmarks: 3 workload builds, 6 shared hits.
    // Only "noop" compiles, once per benchmark, with no reuse inside
    // one sweep (each (benchmark, config) pair is requested once).
    EXPECT_EQ(sweep.cache.workloadBuilds, 3u);
    EXPECT_EQ(sweep.cache.workloadHits, 6u);
    EXPECT_EQ(sweep.cache.compileBuilds, 3u);
    EXPECT_EQ(sweep.cache.compileHits, 0u);

    // a second identical sweep on the same runner is all cache hits
    const auto again = runner.run(spec);
    EXPECT_EQ(again.cache.workloadBuilds, 3u);
    EXPECT_EQ(again.cache.workloadHits, 15u);
    EXPECT_EQ(again.cache.compileBuilds, 3u);
    EXPECT_EQ(again.cache.compileHits, 3u);
    for (std::size_t i = 0; i < sweep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(sweep.cells[i],
                                              again.cells[i]));
    }
}

TEST(ExperimentRunner, UnknownTechniqueIsFatal)
{
    auto spec = smallSpec();
    spec.techniques = {"baseline", "definitely-not-registered"};
    sim::ExperimentRunner runner;
    EXPECT_THROW(runner.run(spec), FatalError);
}

TEST(ExperimentRunner, MixSeedIsDeterministicAndSpreads)
{
    using Runner = sim::ExperimentRunner;
    EXPECT_EQ(Runner::mixSeed(1, 2, 3), Runner::mixSeed(1, 2, 3));
    EXPECT_NE(Runner::mixSeed(1, 2, 3), Runner::mixSeed(1, 3, 2));
    EXPECT_NE(Runner::mixSeed(1, 2, 3), Runner::mixSeed(2, 2, 3));
}

TEST(Replication, ReplicaZeroMatchesUnreplicatedSweep)
{
    auto spec = smallSpec();
    sim::ExperimentRunner plainRunner;
    const auto plain = plainRunner.run(spec);
    EXPECT_EQ(plain.seeds, 1);
    EXPECT_TRUE(plain.aggregates.empty());

    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto rep = runner.run(spec);
    EXPECT_EQ(rep.seeds, 3);
    ASSERT_EQ(rep.cells.size(), plain.cells.size());
    ASSERT_EQ(rep.aggregates.size(), rep.cells.size());
    for (std::size_t i = 0; i < rep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(plain.cells[i],
                                              rep.cells[i]))
            << "replica 0 must be the configured-seed run, cell " << i;
        EXPECT_EQ(rep.aggregates[i].n, 3u);
    }
}

TEST(Replication, AggregatesMatchSerialRunOneFolds)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip"};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 20000;
    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    for (std::size_t t = 0; t < spec.techniques.size(); t++) {
        stats::RunningStats cycles, ipc, broadcasts;
        for (std::size_t r = 0; r < 3; r++) {
            sim::RunConfig cfg = spec.base;
            cfg.tech = *sim::techniqueFromName(spec.techniques[t]);
            if (r > 0) {
                cfg.workload.seed = sim::ExperimentRunner::mixSeed(
                    cfg.workload.seed, r, 0);
            }
            const auto run = sim::runOne("gzip", cfg);
            cycles.sample(static_cast<double>(run.stats.cycles));
            broadcasts.sample(static_cast<double>(run.iq.broadcasts));
            ipc.sample(run.ipc());
        }
        const auto &agg = sweep.aggAt(t, 0);
        // same fold order, same accumulator: bit-exact agreement
        EXPECT_EQ(agg.stats_cycles.mean, cycles.mean());
        EXPECT_EQ(agg.stats_cycles.stddev, cycles.stddev());
        EXPECT_EQ(agg.stats_cycles.ci95, cycles.ci95());
        EXPECT_EQ(agg.iq_broadcasts.mean, broadcasts.mean());
        EXPECT_EQ(agg.ipc.mean, ipc.mean());
        EXPECT_EQ(agg.ipc.ci95, ipc.ci95());
        EXPECT_GT(agg.stats_cycles.stddev, 0.0)
            << "decorrelated replicas must actually vary";
    }
}

TEST(Replication, ReplicasShareWorkloadsAcrossTechniques)
{
    auto spec = smallSpec();
    spec.seeds = 3;
    spec.jobs = 4;
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);
    // replica seeds depend only on the replica index, so 3 benchmarks
    // x 3 seeds = 9 distinct workloads, each shared by 3 techniques
    EXPECT_EQ(sweep.cache.workloadBuilds, 9u);
    EXPECT_EQ(sweep.cache.workloadHits, 18u);
    EXPECT_EQ(sweep.cache.compileBuilds, 9u);
    EXPECT_EQ(sweep.cache.compileHits, 0u);
}

TEST(Replication, JsonExportByteIdenticalAcrossJobsAtSeeds3)
{
    auto spec = smallSpec();
    spec.seeds = 3;

    spec.jobs = 1;
    sim::ExperimentRunner serialRunner;
    const auto serial = serialRunner.run(spec);

    spec.jobs = 4;
    sim::ExperimentRunner threadedRunner;
    const auto threaded = threadedRunner.run(spec);

    EXPECT_EQ(jsonOf(normalized(serial)), jsonOf(normalized(threaded)))
        << "jobs=1 and jobs=4 must export byte-identical JSON";
}

/** A replica count below 1 names no experiment: the runner and the
 *  spec parser both refuse it, pointing at --seeds. */
TEST(Replication, SeedsBelowOneAreRefused)
{
    for (const int seeds : {0, -1}) {
        auto spec = smallSpec();
        spec.seeds = seeds;
        sim::ExperimentRunner runner;
        try {
            runner.run(spec);
            ADD_FAILURE() << "run() accepted seeds=" << seeds;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--seeds"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(runner.cacheStats().workloadBuilds, 0u)
            << "refused before any cell ran";

        const auto parsed = sim::tryReadSpecJson(sim::toJson(spec));
        ASSERT_FALSE(parsed) << "spec JSON accepted seeds=" << seeds;
        EXPECT_NE(parsed.error().find("--seeds"), std::string::npos)
            << parsed.error();
    }
}

/** The trace-replay grid: every built-in technique over structurally
 *  diverse workload families (loops, FP, calls, phase changes), with
 *  replica seeds so replay covers decorrelated workloads too. */
sim::SweepSpec
traceSpec()
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "specfp", "server", "phased"};
    spec.techniques = {"baseline", "noop",   "extension",
                       "improved", "abella", "folegnani"};
    spec.base.workload.repDivisor = 40;
    spec.base.warmupInsts = 2000;
    spec.base.measureInsts = 10000;
    spec.seeds = 2;
    spec.jobs = 4;
    return spec;
}

/** Exact accounting: one trace build per distinct annotated-program
 *  content, one hit for every other (cell, replica); the distinct set
 *  is recomputed here independently of the cache. */
TEST(TraceReplay, CacheAccountingMatchesDistinctPrograms)
{
    const auto spec = traceSpec();
    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);

    std::set<std::uint64_t> distinct;
    std::uint64_t gets = 0;
    for (const auto &bench : spec.benchmarks) {
        for (int rep = 0; rep < spec.seeds; rep++) {
            auto wp = spec.base.workload;
            if (rep > 0) {
                wp.seed =
                    sim::ExperimentRunner::mixSeed(wp.seed, rep, 0);
            }
            const Program raw = workloads::generate(bench, wp);
            for (const auto &tech : spec.techniques) {
                sim::RunConfig cfg = spec.base;
                cfg.tech = *sim::techniqueFromName(tech);
                gets++;
                const auto cc = sim::compilerConfigFor(cfg.tech, cfg);
                if (cc) {
                    Program annotated = raw;
                    compiler::annotate(annotated, *cc);
                    distinct.insert(annotated.contentHash);
                } else {
                    distinct.insert(raw.contentHash);
                }
            }
        }
    }
    EXPECT_EQ(sweep.cache.traceBuilds, distinct.size());
    EXPECT_EQ(sweep.cache.traceHits, gets - distinct.size());
    EXPECT_EQ(sweep.cache.traceEvicted, 0u);
    EXPECT_GT(sweep.cache.traceBytes, 0u);
}

/** An over-subscribed byte cap evicts instead of growing without
 *  bound, and eviction (rebuilding traces) never changes results. */
TEST(TraceReplay, CacheRespectsByteCapUnderOverCapSweep)
{
    auto spec = traceSpec();
    spec.jobs = 1; // deterministic LRU order and final resident set

    ASSERT_EQ(setenv("SIQSIM_TRACE_CACHE_MB", "1", 1), 0);
    sim::ExperimentRunner capped;
    ASSERT_EQ(unsetenv("SIQSIM_TRACE_CACHE_MB"), 0);
    const auto sweep = capped.run(spec);
    EXPECT_GT(sweep.cache.traceEvicted, 0u);
    EXPECT_LE(sweep.cache.traceBytes, 1ull << 20);

    sim::ExperimentRunner unbounded;
    const auto reference = unbounded.run(spec);
    EXPECT_EQ(reference.cache.traceEvicted, 0u);
    EXPECT_EQ(jsonOf(normalized(sweep)), jsonOf(normalized(reference)))
        << "trace eviction changed simulated behavior";
}

class ReportRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto spec = smallSpec();
        spec.base.workload.repDivisor = 40;
        spec.base.warmupInsts = 2000;
        spec.base.measureInsts = 20000;
        sim::ExperimentRunner runner;
        sweep = runner.run(spec);
    }

    static void
    expectFullyEqual(const sim::SweepResult &a,
                     const sim::SweepResult &b)
    {
        ASSERT_EQ(a.benchmarks, b.benchmarks);
        ASSERT_EQ(a.techniques, b.techniques);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t i = 0; i < a.cells.size(); i++) {
            const auto &x = a.cells[i];
            const auto &y = b.cells[i];
            EXPECT_TRUE(sim::identicalMeasurement(x, y)) << i;
            // wall-clock fields round-trip exactly too (%.17g)
            EXPECT_EQ(x.generateSeconds, y.generateSeconds) << i;
            EXPECT_EQ(x.compile.seconds, y.compile.seconds) << i;
        }
    }

    sim::SweepResult sweep;
};

TEST_F(ReportRoundTrip, Json)
{
    std::stringstream ss;
    sim::writeJson(ss, sweep);
    const auto back = sim::readJson(ss);
    expectFullyEqual(sweep, back);
    EXPECT_EQ(back.cache, sweep.cache);
    EXPECT_EQ(back.jobsUsed, sweep.jobsUsed);
    EXPECT_EQ(back.wallSeconds, sweep.wallSeconds);
}

TEST_F(ReportRoundTrip, PowerCsvHasEveryNonBaselineCell)
{
    std::stringstream ss;
    sim::writePowerCsv(ss, sweep);
    std::string line;
    std::size_t rows = 0;
    ASSERT_TRUE(std::getline(ss, line)); // header
    while (std::getline(ss, line))
        rows += line.empty() ? 0 : 1;
    EXPECT_EQ(rows, sweep.benchmarks.size() *
                        (sweep.techniques.size() - 1));
}

TEST_F(ReportRoundTrip, LegacySchemaWhenUnreplicated)
{
    // seeds == 1 must keep the pre-replication export byte format
    const std::string json = jsonOf(sweep);
    EXPECT_EQ(json.find("\"seeds\""), std::string::npos);
    EXPECT_EQ(json.find("\"aggregates\""), std::string::npos);
    std::stringstream ss;
    sim::writeCsv(ss, sweep);
    std::string header;
    ASSERT_TRUE(std::getline(ss, header));
    EXPECT_EQ(header.find(",n"), std::string::npos);
    EXPECT_EQ(header.find("_ci95"), std::string::npos);
    expectCsvMatchesJson(sweep);
}

class ReplicatedRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto spec = smallSpec();
        spec.base.workload.repDivisor = 40;
        spec.base.warmupInsts = 2000;
        spec.base.measureInsts = 20000;
        spec.seeds = 3;
        sim::ExperimentRunner runner;
        sweep = runner.run(spec);
    }

    sim::SweepResult sweep;
};

TEST_F(ReplicatedRoundTrip, JsonPreservesAggregatesExactly)
{
    std::stringstream ss;
    sim::writeJson(ss, sweep);
    const auto back = sim::readJson(ss);
    EXPECT_EQ(back.seeds, 3);
    ASSERT_EQ(back.aggregates.size(), sweep.aggregates.size());
    for (std::size_t i = 0; i < sweep.aggregates.size(); i++) {
        // %.17g doubles round-trip bit-exactly, so default == holds
        EXPECT_EQ(back.aggregates[i], sweep.aggregates[i])
            << "cell " << i;
    }
    for (std::size_t i = 0; i < sweep.cells.size(); i++) {
        EXPECT_TRUE(sim::identicalMeasurement(back.cells[i],
                                              sweep.cells[i]));
    }
    expectCsvMatchesJson(sweep);
}

TEST_F(ReplicatedRoundTrip, AggregateLookupByTechniqueName)
{
    const auto &agg = sweep.aggAt("noop", 1);
    EXPECT_EQ(agg.n, 3u);
    EXPECT_GT(agg.ipc.mean, 0.0);
    EXPECT_THROW(sweep.aggAt("definitely-not-registered", 0),
                 FatalError);
    sim::SweepResult unreplicated;
    unreplicated.techniques = {"baseline"};
    unreplicated.benchmarks = {"gzip"};
    EXPECT_THROW(unreplicated.aggAt("baseline", 0), FatalError);
}

TEST_F(ReportRoundTrip, SingleResultJsonParses)
{
    const std::string json = sim::toJson(sweep.cells[0]);
    EXPECT_NE(json.find("\"benchmark\":\"gzip\""), std::string::npos);
}

} // namespace
} // namespace siq
