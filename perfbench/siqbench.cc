/**
 * @file
 * siqsim benchmark driver: one named workload per invocation, timed
 * through the library's public entry points, printing every metric by
 * name with its unit and a final one-line JSON result.
 *
 *   siqbench --workload W --seed N --seconds S --trace 0|1 [--spans F]
 *
 * Workloads (perfbench/README.md has the rationale):
 *  - sweep_oracle: ExperimentRunner::run at jobs=1 over a warm
 *    gzip/mcf/server/phased x six-technique grid, oracle front end;
 *    one light serve cycle per grid pass.
 *  - sweep_spec: the same with CoreConfig::specFrontEnd.
 *  - serve_mixed: an in-process ServeEngine fed a seeded closed-loop
 *    stream of fresh, cached and duplicate single-cell requests.
 *
 * Every host-time metric is a statistic over many short samples taken
 * after the caches are warm; cold cost is measured separately as
 * setup_s. Outputs are checked as they arrive: a repeated sweep cell
 * must be identicalMeasurement to its first occurrence, and every
 * serve cell record / export must be byte-identical to the first one
 * of its identity. Mismatches and error records count as failed
 * operations.
 *
 * --trace 1 records spans around the calls into each layer (kept in
 * memory, written to --spans at exit) and prints the per-layer
 * metrics instead of the end-to-end ones.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "compiler/pass.hh"
#include "cpu/trace.hh"
#include "sim/report.hh"
#include "sim/serve.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace siq;
using namespace siq::sim;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ config

const std::vector<std::string> kFamilies = {"gzip", "mcf", "server",
                                            "phased"};
const std::vector<std::string> kTechniques = {
    "baseline", "noop", "extension", "improved", "abella", "folegnani"};

/** Grid cell budget: short cells, so one run holds hundreds. */
constexpr std::uint64_t kSweepWarmup = 20000;
constexpr std::uint64_t kSweepMeasure = 80000;
/** Serve cell budget: smaller, so cached requests dominate p50. */
constexpr std::uint64_t kServeWarmup = 10000;
constexpr std::uint64_t kServeMeasure = 40000;

/** Rounds per serve cycle; each round submits two requests. */
constexpr int kRoundsPerCycle = 5;
/** Completed fresh specs kept eligible for repeats. */
constexpr std::size_t kRecentFresh = 32;
/** Serve engine trace-cache cap: small, so eviction is exercised. */
constexpr const char *kServeTraceCapMb = "32";
/** Set-up repetitions spread evenly over the timed window. */
constexpr int kSetupReps = 9;

/** Fixed prefix of work after which counts and peak RSS are read, so
 *  they do not depend on how much work the host managed. */
constexpr long kPrefixPasses = 3;
constexpr int kPrefixCycles = 20;

struct WorkloadPlan
{
    bool specFrontEnd = false;
    bool grid = false;     ///< one grid pass per loop iteration
    int cyclesPerIter = 0; ///< serve cycles per loop iteration
};

std::optional<WorkloadPlan>
planFor(const std::string &name)
{
    if (name == "sweep_oracle")
        return WorkloadPlan{false, true, 4};
    if (name == "sweep_spec")
        return WorkloadPlan{true, true, 4};
    if (name == "serve_mixed")
        return WorkloadPlan{false, false, 10};
    return std::nullopt;
}

// ----------------------------------------------------------- helpers

double
msSince(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The best sample: the largest when @p higher, else the smallest;
 *  0 for no samples. */
double
best(const std::vector<double> &v, bool higher)
{
    if (v.empty())
        return 0.0;
    return higher ? *std::max_element(v.begin(), v.end())
                  : *std::min_element(v.begin(), v.end());
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Workload seed of the grid and of the serve warm pool. Fixed, so every
 * run measures the same programs: a seed-drawn grid moved the geomean
 * by a third between seeds, and a seeded axis order moved the
 * speculative grid's rate and RSS with the heap layout. The run seed
 * drives the serve stream.
 */
constexpr std::uint64_t kGridSeed = 12345;

RunConfig
baseConfig(bool spec, std::uint64_t warmup, std::uint64_t measure)
{
    RunConfig cfg;
    cfg.warmupInsts = warmup;
    cfg.measureInsts = measure;
    cfg.workload.seed = kGridSeed;
    cfg.core.specFrontEnd = spec;
    return cfg;
}

std::string
oneLine(std::string s)
{
    s.erase(std::remove(s.begin(), s.end(), '\n'), s.end());
    return s;
}

// ------------------------------------------------------------ tracer

/**
 * In-memory span recorder. Off: every call returns at once. On: spans
 * {name, start, end, parent, request id} are appended under a lock
 * (the serve reader thread records too) and written as JSONL at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on), t0(Clock::now()) {}

    bool on() const { return _on; }

    /** Open a span; returns its id (-1 when tracing is off). */
    long
    begin(const char *name, long parent = -1, std::uint64_t req = 0)
    {
        return begin(name, Clock::now(), parent, req);
    }

    long
    begin(const char *name, Clock::time_point start, long parent,
          std::uint64_t req)
    {
        if (!_on)
            return -1;
        std::lock_guard lock(mu);
        spans.push_back({name, ns(start), -1, parent, req});
        return static_cast<long>(spans.size() - 1);
    }

    void end(long id) { end(id, Clock::now()); }

    void
    end(long id, Clock::time_point at)
    {
        if (id < 0)
            return;
        std::lock_guard lock(mu);
        spans[static_cast<std::size_t>(id)].end = ns(at);
    }

    /** A closed span in one call. */
    long
    record(const char *name, Clock::time_point start,
           Clock::time_point stop, long parent, std::uint64_t req = 0)
    {
        const long id = begin(name, start, parent, req);
        end(id, stop);
        return id;
    }

    /** Self time of each span (its duration minus the union of its
     *  children's intervals), grouped by span name, in ms. */
    std::map<std::string, std::vector<double>>
    selfTimesMs() const
    {
        std::lock_guard lock(mu);
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
            kids(spans.size());
        for (const auto &s : spans) {
            if (s.parent >= 0 && s.end >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.start, s.end});
        }
        std::map<std::string, std::vector<double>> out;
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            if (s.end < 0)
                continue;
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            std::int64_t covered = 0, curS = 0, curE = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (a > curE) {
                    if (curE > curS)
                        covered += curE - curS;
                    curS = a;
                    curE = b;
                } else {
                    curE = std::max(curE, b);
                }
            }
            if (curE > curS)
                covered += curE - curS;
            out[s.name].push_back(
                static_cast<double>(s.end - s.start - covered) / 1e6);
        }
        return out;
    }

    /** Write every span as one JSON object per line. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        std::lock_guard lock(mu);
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.start << ",\"end_ns\":"
               << s.end << ",\"parent\":" << s.parent
               << ",\"req\":" << s.req << "}\n";
        }
        return static_cast<bool>(os);
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        long parent;
        std::uint64_t req;
    };

    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - t0)
            .count();
    }

    const bool _on;
    const Clock::time_point t0;
    mutable std::mutex mu;
    std::vector<Span> spans; ///< guarded by mu
};

// ------------------------------------------------------------- setup

/**
 * The cold cost of a workload's warm set, as the runner's caches pay
 * it: generate every program, annotate it once per hint configuration,
 * and produce one functional trace per distinct program (by content
 * hash) up to the record count a warm pass consumed. calibrate() runs
 * that warm pass once (untimed) to learn the frontiers; rep() then
 * times the three steps on fresh objects.
 */
class SetupMeter
{
  public:
    SetupMeter(const RunConfig &base, Tracer &tracer)
        : base(base), tracer(tracer)
    {
    }

    void
    calibrate()
    {
        for (std::size_t f = 0; f < kFamilies.size(); f++) {
            const auto raw = std::make_shared<const Program>(
                workloads::generate(kFamilies[f], base.workload));
            // distinct programs (by content hash) and their replayers
            std::vector<std::shared_ptr<const Program>> progs;
            std::vector<std::vector<const TechniqueDef *>> users;
            const std::size_t firstStep = steps.size();
            std::vector<std::size_t> stepProg; // this family's steps
            bool rawStep = false;
            for (const auto &t : kTechniques) {
                const TechniqueDef *def = findTechnique(t);
                const auto cc = def->compilerConfig
                                    ? def->compilerConfig(cellConfig(*def))
                                    : std::nullopt;
                std::shared_ptr<const Program> prog = raw;
                if (cc) {
                    Program annotated = *raw;
                    blocksAnalyzed +=
                        compiler::annotate(annotated, *cc).blocksAnalyzed;
                    prog = std::make_shared<const Program>(
                        std::move(annotated));
                }
                std::size_t k = 0;
                while (k < progs.size() &&
                       progs[k]->contentHash != prog->contentHash)
                    k++;
                if (k == progs.size()) {
                    progs.push_back(prog);
                    users.emplace_back();
                }
                users[k].push_back(def);
                if (cc || !rawStep) {
                    rawStep = rawStep || !cc;
                    steps.push_back({f, cc, false, 0});
                    stepProg.push_back(k);
                }
            }
            // the first step yielding each distinct program traces it
            for (std::size_t k = 0; k < progs.size(); k++) {
                const auto i = static_cast<std::size_t>(
                    std::find(stepProg.begin(), stepProg.end(), k) -
                    stepProg.begin());
                Step &st = steps[firstStep + i];
                st.traced = true;
                st.frontier = warmFrontier(progs[k], users[k]);
                records += st.frontier;
            }
        }
    }

    /** One timed cold set-up on fresh objects; returns its seconds. */
    double
    rep()
    {
        const long top = tracer.begin("setup");
        double genMs = 0, annMs = 0, trMs = 0;
        std::vector<std::shared_ptr<const Program>> raws;
        for (const auto &fam : kFamilies) {
            const auto t0 = Clock::now();
            raws.push_back(std::make_shared<const Program>(
                workloads::generate(fam, base.workload)));
            const auto t1 = Clock::now();
            genMs += msSince(t0, t1);
            tracer.record("workloads.generate", t0, t1, top);
        }
        for (const Step &st : steps) {
            std::shared_ptr<const Program> prog = raws[st.family];
            if (st.cc) {
                const auto t0 = Clock::now();
                Program annotated = *prog;
                compiler::annotate(annotated, *st.cc);
                prog = std::make_shared<const Program>(std::move(annotated));
                const auto t1 = Clock::now();
                annMs += msSince(t0, t1);
                tracer.record("compiler.annotate", t0, t1, top);
            }
            if (!st.traced)
                continue;
            const auto t0 = Clock::now();
            {
                FuncTrace trace(prog);
                trace.window(st.frontier - 1);
            }
            const auto t1 = Clock::now();
            trMs += msSince(t0, t1);
            tracer.record("trace.produce", t0, t1, top);
        }
        tracer.end(top);
        generateMs.push_back(genMs);
        annotateMs.push_back(annMs);
        produceMs.push_back(trMs);
        const double s = (genMs + annMs + trMs) / 1e3;
        setupS.push_back(s);
        return s;
    }

    std::vector<double> setupS, generateMs, annotateMs, produceMs;
    std::uint64_t blocksAnalyzed = 0;
    std::uint64_t records = 0;

  private:
    /** The raw program (no cc) or one hint configuration of a family;
     *  `traced` marks the first step of each distinct program. */
    struct Step
    {
        std::size_t family;
        std::optional<compiler::CompilerConfig> cc;
        bool traced;
        std::uint64_t frontier;
    };

    RunConfig
    cellConfig(const TechniqueDef &def) const
    {
        RunConfig cfg = base;
        cfg.tech = def.tag;
        return cfg;
    }

    /** Replay every user of @p prog over one shared trace, as the
     *  runner's trace cache does, and return the records produced. */
    std::uint64_t
    warmFrontier(const std::shared_ptr<const Program> &prog,
                 const std::vector<const TechniqueDef *> &users)
    {
        FuncTrace trace(prog);
        for (const TechniqueDef *def : users)
            simulateProgram(*prog, *def, cellConfig(*def), &trace);
        return trace.producedRecords();
    }

    const RunConfig base;
    Tracer &tracer;
    std::vector<Step> steps;
};

// ------------------------------------------------------------- sweep

/** Per-pass totals of the grid's simulated events (exact counts). */
struct GridCounts
{
    std::uint64_t cycles = 0, committed = 0, fetched = 0, dispatched = 0,
                  issued = 0, mispredicts = 0, wrongPathFetched = 0,
                  squashes = 0, squashedInsts = 0, broadcasts = 0,
                  cmpPowered = 0, dispatchWrites = 0, issueReads = 0,
                  occupancySum = 0, iqCycles = 0;
};

/** The batch layer: warm grid passes through ExperimentRunner::run. */
class GridDriver
{
  public:
    GridDriver(bool spec, Tracer &tracer, long &failed, long &attempted)
        : runner(1), tracer(tracer), failed(failed),
          attempted(attempted)
    {
        spec_.benchmarks = kFamilies;
        spec_.techniques = kTechniques;
        spec_.base = baseConfig(spec, kSweepWarmup, kSweepMeasure);
        spec_.jobs = 1;
        spec_.seeds = 1;
        specText = toJson(spec_);
        rates.resize(kFamilies.size() * kTechniques.size());
        cellMs.resize(rates.size());
    }

    /** Untimed cold pass: fills the caches, pins the reference
     *  results every later pass is checked against. */
    void
    warm()
    {
        SweepResult r = runner.run(spec_);
        reference = r.cells;
        cacheAfterCold = runner.cacheStats();
        canonicalize(r);
        std::ostringstream os;
        writeJson(os, r);
        referenceExport = os.str();
        for (const RunResult &c : reference) {
            counts.cycles += c.stats.cycles;
            counts.committed += c.stats.committed;
            counts.fetched += c.stats.fetched;
            counts.dispatched += c.stats.dispatched;
            counts.issued += c.stats.issued;
            counts.mispredicts += c.stats.branchMispredicts;
            counts.wrongPathFetched += c.stats.wrongPathFetched;
            counts.squashes += c.stats.squashes;
            counts.squashedInsts += c.stats.squashedInsts;
            counts.broadcasts += c.iq.broadcasts;
            counts.cmpPowered += c.iq.cmpPowered;
            counts.dispatchWrites += c.iq.dispatchWrites;
            counts.issueReads += c.iq.issueReads;
            counts.occupancySum += c.iq.occupancySum;
            counts.iqCycles += c.iq.cycles;
        }
    }

    /** One timed pass over the warm grid. */
    void
    pass()
    {
        if (tracer.on()) {
            const auto t0 = Clock::now();
            const auto parsed = tryReadSpecJson(specText);
            const auto t1 = Clock::now();
            tracer.record("json.tryReadSpecJson", t0, t1, -1);
            specParseUs.push_back(msSince(t0, t1) * 1e3);
            if (!parsed)
                failed++;
        }

        const std::size_t n = rates.size();
        std::vector<Clock::time_point> stamps(n);
        CellHooks hooks;
        hooks.onCellDone = [&](std::size_t i, const CellKey &,
                               const RunResult &, const CellAggregate *) {
            stamps[i] = Clock::now();
        };
        const auto start = Clock::now();
        const long runSpan = tracer.begin("sweep.run", start, -1, passes);
        SweepResult r = runner.run(spec_, hooks);
        tracer.end(runSpan);

        // jobs=1 runs cells in index order: each cell spans from the
        // previous cell's completion (the first from run() entry)
        Clock::time_point prev = start;
        for (std::size_t i = 0; i < n; i++) {
            const double ms = msSince(prev, stamps[i]);
            tracer.record("core.cell", prev, stamps[i], runSpan, passes);
            prev = stamps[i];
            attempted++;
            if (!identicalMeasurement(r.cells[i], reference[i])) {
                failed++;
                continue;
            }
            const RunResult &c = r.cells[i];
            const double insts = static_cast<double>(
                spec_.base.warmupInsts + c.stats.committed);
            rates[i].push_back(insts / (ms * 1e3)); // Minst/s
            cellMs[i].push_back(ms);
            // host time of the measured phase, per simulated event
            const double measuredNs =
                ms * 1e6 * static_cast<double>(c.stats.committed) / insts;
            nsPerCycle.push_back(measuredNs /
                                 static_cast<double>(c.stats.cycles));
            // every fetched instruction, wrong path included
            nsPerFetched.push_back(
                measuredNs / static_cast<double>(c.stats.fetched +
                                                 c.stats.wrongPathFetched));
        }

        const auto e0 = Clock::now();
        canonicalize(r);
        std::ostringstream os;
        writeJson(os, r);
        const std::string text = os.str();
        const auto e1 = Clock::now();
        tracer.record("report.writeJson", e0, e1, -1, passes);
        exportMs.push_back(msSince(e0, e1));
        if (text != referenceExport)
            failed++;
        passes++;
    }

    /** Geomean over cell identities of each identity's best rate. */
    double
    bestMinstPerS() const
    {
        double logSum = 0;
        for (const auto &v : rates)
            logSum += std::log(best(v, true));
        return std::exp(logSum / static_cast<double>(rates.size()));
    }

    std::uint64_t
    digest() const
    {
        return fnv1a(kFnvBasis, referenceExport);
    }

    ExperimentRunner runner;
    Tracer &tracer;
    long &failed;
    long &attempted;
    SweepSpec spec_;
    std::string specText;
    std::vector<RunResult> reference;
    std::string referenceExport;
    SweepCacheStats cacheAfterCold;
    GridCounts counts;
    long passes = 0;
    /** Per cell identity (technique-major index) samples. */
    std::vector<std::vector<double>> rates, cellMs;
    std::vector<double> nsPerCycle, nsPerFetched, exportMs, specParseUs;
};

// ------------------------------------------------------------- serve

/** One response stream's view of a request. */
struct ReqState
{
    Clock::time_point acceptedAt{}, doneAt{};
    bool done = false, error = false;
    std::uint64_t cells = 0, sim = 0, shared = 0, cached = 0,
                  cancelled = 0;
    /** "cell" objects of the checkpoint payloads, by cell index. */
    std::map<std::uint64_t, std::string> cellBytes;
    std::string exportBytes; ///< quoted export text
};

/** Extract the unsigned integer after "key": in @p rec. */
std::uint64_t
fieldU64(const std::string &rec, const char *key)
{
    const std::string k = std::string("\"") + key + "\":";
    const auto p = rec.find(k);
    if (p == std::string::npos)
        return 0;
    return std::strtoull(rec.c_str() + p + k.size(), nullptr, 10);
}

/**
 * The serve layer: one in-process ServeEngine and one client driven
 * as a closed loop that submits two requests at a time and sends the
 * next two once both are done. A cycle is five such rounds:
 *   (fresh X, duplicate of X), (fresh Y, repeat), 3 x (repeat, repeat)
 * so 30% of requests simulate (fresh or deduped onto a fresh flight)
 * and 70% are answered from the result cache. Fresh requests use new
 * workload scales; repeats re-send a completed spec from the warm pool
 * or the most recent fresh ones.
 */
class ServeDriver
{
  public:
    ServeDriver(bool spec, std::uint64_t seed, Tracer &tracer,
                long &failed, long &attempted)
        : base(baseConfig(spec, kServeWarmup, kServeMeasure)),
          engine(makeEngine()), client(engine->connect()),
          tracer(tracer), failed(failed), attempted(attempted),
          rng(seed)
    {
        scaleBase = splitmix(rng) % (1u << 20);
        reader = std::thread([this] { readLoop(); });
    }

    ~ServeDriver()
    {
        client->endOfInput();
        if (aborted)
            client->hardClose();
        reader.join();
    }

    ServeDriver(const ServeDriver &) = delete;
    ServeDriver &operator=(const ServeDriver &) = delete;

    /** Untimed: the warm pool (the whole grid at serve budgets) as
     *  one request, leaving every pool cell in the result cache. */
    void
    warm()
    {
        SweepSpec grid;
        grid.benchmarks = kFamilies;
        grid.techniques = kTechniques;
        grid.base = base;
        grid.seeds = 1;
        const std::uint64_t id = nextId++;
        submit(id, oneLine(toJson(grid)));
        const ReqState st = await(id);
        if (st.error || st.cellBytes.size() != st.cells ||
            st.cells != grid.benchmarks.size() * grid.techniques.size())
            throw std::runtime_error("serve warm-up request failed");
        for (std::size_t t = 0; t < kTechniques.size(); t++) {
            for (std::size_t f = 0; f < kFamilies.size(); f++) {
                Spec s = makeSpec(f, t, base.workload.scale);
                checkCell(s.cellKey,
                          st.cellBytes.at(t * kFamilies.size() + f));
                pool.push_back(std::move(s));
            }
        }
    }

    /** Records that named no request of ours (error records). */
    long
    strays()
    {
        std::lock_guard lock(mu);
        return strayErrors;
    }

    /** One timed cycle of five two-request rounds. */
    void
    cycle()
    {
        const auto c0 = Clock::now();
        const std::size_t first = latencyMs.size();
        std::uint64_t delivered = 0;
        for (int r = 0; r < kRoundsPerCycle; r++) {
            std::vector<Spec> batch;
            if (r == 0) {
                Spec x = fresh();
                batch = {x, x};
            } else if (r == 1) {
                batch = {fresh(), repeat()};
            } else {
                batch = {repeat(), repeat()};
            }
            delivered += round(batch);
        }
        cycleCellsPerS.push_back(static_cast<double>(delivered) /
                                 (msSince(c0, Clock::now()) / 1e3));
        const std::vector<double> lat(latencyMs.begin() + first,
                                      latencyMs.end());
        cycleP50.push_back(quantile(lat, 0.5));
        cycleP90.push_back(quantile(lat, 0.9));
        cycles++;
        if (cycles == kPrefixCycles) {
            prefixStats = engine->stats();
            prefixCache = engine->cacheStats();
        }
    }

    int cycles = 0;
    ServeEngine::Stats prefixStats{};
    SweepCacheStats prefixCache{};
    std::uint64_t digest = kFnvBasis;

    std::vector<double> latencyMs, acceptMs, hitMs, sharedMs, freshMs,
        simRates, cycleCellsPerS, cycleP50, cycleP90, specParseUs,
        exportSizes;

  private:
    struct Spec
    {
        std::string text;    ///< one-line SweepSpec JSON
        std::string cellKey; ///< family|scale|technique
    };

    static std::unique_ptr<ServeEngine>
    makeEngine()
    {
        ServeEngine::Options o;
        o.jobs = 1;
        o.resultCacheCap = 1u << 16;
        // the runner reads its trace-cache cap at construction
        setenv("SIQSIM_TRACE_CACHE_MB", kServeTraceCapMb, 1);
        auto e = std::make_unique<ServeEngine>(o);
        unsetenv("SIQSIM_TRACE_CACHE_MB");
        return e;
    }

    Spec
    makeSpec(std::size_t fam, std::size_t tech, int scale) const
    {
        SweepSpec s;
        s.benchmarks = {kFamilies[fam]};
        s.techniques = {kTechniques[tech]};
        s.base = base;
        s.base.workload.scale = scale;
        s.seeds = 1;
        return {oneLine(toJson(s)), kFamilies[fam] + "|" +
                                        std::to_string(scale) + "|" +
                                        kTechniques[tech]};
    }

    /**
     * Fresh cells are gzip at a new workload scale: a program never
     * seen before (new content hash, so new generation, annotation and
     * trace), whose first instructions run exactly like every other
     * scale's, so each fresh cell is the same amount of work. gzip has
     * the smallest memory image; the engine keeps every program it
     * ever built, and the 2 MiB images of mcf/server/phased would grow
     * a run by gigabytes. Techniques cycle in a fixed order.
     */
    Spec
    fresh()
    {
        const std::size_t fam = 0; // kFamilies[0] == "gzip"
        const std::size_t tech = freshCount % kTechniques.size();
        // scales >= 2 never meet the warm pool (scale 1); gzip's outer
        // loop count is 20 * scale, far from int overflow
        const int scale = static_cast<int>(2 + scaleBase + freshCount);
        freshCount++;
        Spec s = makeSpec(fam, tech, scale);
        pendingFresh.push_back(s);
        return s;
    }

    Spec
    repeat()
    {
        const std::size_t n = pool.size() + recent.size();
        const std::size_t k = splitmix(rng) % n;
        return k < pool.size() ? pool[k] : recent[k - pool.size()];
    }

    /** Submit @p batch together and wait for every done record. */
    std::uint64_t
    round(const std::vector<Spec> &batch)
    {
        const long span = tracer.begin("serve.round", -1, nextId);
        std::vector<std::uint64_t> ids;
        std::vector<Clock::time_point> sent;
        std::vector<long> reqSpans;
        for (const Spec &s : batch) {
            if (tracer.on()) {
                const auto t0 = Clock::now();
                const bool ok = static_cast<bool>(tryReadSpecJson(s.text));
                const auto t1 = Clock::now();
                tracer.record("json.tryReadSpecJson", t0, t1, span);
                specParseUs.push_back(msSince(t0, t1) * 1e3);
                if (!ok)
                    failed++;
            }
            const std::uint64_t id = nextId++;
            const auto t0 = Clock::now();
            const long rs = tracer.begin("serve.request", t0, span, id);
            submit(id, s.text);
            tracer.record("serve.submitLine", t0, Clock::now(), rs, id);
            ids.push_back(id);
            sent.push_back(t0);
            reqSpans.push_back(rs);
        }
        std::uint64_t delivered = 0;
        for (std::size_t i = 0; i < batch.size(); i++) {
            const ReqState st = await(ids[i]);
            tracer.end(reqSpans[i], st.doneAt);
            attempted++;
            if (st.error || st.cancelled != 0 ||
                st.sim + st.shared + st.cached != st.cells ||
                st.cellBytes.size() != st.cells) {
                failed++;
                continue;
            }
            bool ok = checkCell(batch[i].cellKey, st.cellBytes.at(0));
            auto [it, first] =
                exports.emplace(batch[i].text, st.exportBytes);
            ok = ok && (first || it->second == st.exportBytes);
            if (!ok) {
                failed++;
                continue;
            }
            delivered += st.cells;
            const double ms = msSince(sent[i], st.doneAt);
            latencyMs.push_back(ms);
            acceptMs.push_back(msSince(sent[i], st.acceptedAt));
            exportSizes.push_back(static_cast<double>(st.exportBytes.size()));
            if (st.sim > 0) {
                freshMs.push_back(ms);
                simRates.push_back(
                    static_cast<double>(st.sim *
                                        (base.warmupInsts +
                                         base.measureInsts)) /
                    (ms * 1e3));
            } else if (st.shared > 0) {
                sharedMs.push_back(ms);
            } else {
                hitMs.push_back(ms);
            }
            if (cycles < kPrefixCycles)
                digest = fnv1a(digest, st.cellBytes.at(0));
        }
        tracer.end(span);
        // fresh specs become repeatable once completed
        for (Spec &s : pendingFresh) {
            recent.push_back(std::move(s));
            if (recent.size() > kRecentFresh)
                recent.erase(recent.begin());
        }
        pendingFresh.clear();
        return delivered;
    }

    /** Cell records of one identity must be byte-identical whichever
     *  path delivered them. */
    bool
    checkCell(const std::string &key, const std::string &bytes)
    {
        auto [it, first] = cellBytes.emplace(key, bytes);
        return first || it->second == bytes;
    }

    void
    submit(std::uint64_t id, const std::string &specText)
    {
        client->submitLine("{\"id\":\"r" + std::to_string(id) +
                           "\",\"spec\":" + specText + "}");
    }

    ReqState
    await(std::uint64_t id)
    {
        std::unique_lock lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(60), [&] {
                auto it = reqs.find(id);
                return it != reqs.end() && it->second.done;
            })) {
            aborted = true;
            throw std::runtime_error("serve request timed out");
        }
        ReqState st = std::move(reqs[id]);
        reqs.erase(id);
        return st;
    }

    void
    readLoop()
    {
        std::string rec;
        while (client->nextRecord(rec)) {
            const auto now = Clock::now();
            // {"id":"r<n>","event":"<kind>",...
            if (rec.compare(0, 8, "{\"id\":\"r") != 0) {
                std::lock_guard lock(mu);
                strayErrors++;
                continue;
            }
            const std::uint64_t id =
                std::strtoull(rec.c_str() + 8, nullptr, 10);
            const auto ev = rec.find("\"event\":\"");
            const std::string kind =
                ev == std::string::npos
                    ? ""
                    : rec.substr(ev + 9, rec.find('"', ev + 9) - ev - 9);
            std::lock_guard lock(mu);
            ReqState &st = reqs[id];
            if (kind == "accepted") {
                st.acceptedAt = now;
            } else if (kind == "cell") {
                // the "cell" object of the checkpoint payload
                const auto c = rec.find("\"cell\":");
                st.cellBytes[fieldU64(rec, "index")] =
                    c == std::string::npos ? rec
                                           : rec.substr(c, rec.size() - c - 2);
            } else if (kind == "done") {
                st.cells = fieldU64(rec, "cells");
                st.sim = fieldU64(rec, "cellsSimulated");
                st.shared = fieldU64(rec, "cellsShared");
                st.cached = fieldU64(rec, "cellsCached");
                st.cancelled = fieldU64(rec, "cellsCancelled");
                const auto e = rec.find("\"export\":");
                if (e != std::string::npos)
                    st.exportBytes = rec.substr(e);
                st.doneAt = now;
                st.done = true;
                cv.notify_all();
            } else {
                st.error = true;
                st.doneAt = now;
                st.done = true;
                cv.notify_all();
            }
        }
    }

    const RunConfig base;
    std::unique_ptr<ServeEngine> engine;
    std::shared_ptr<ServeEngine::Client> client;
    Tracer &tracer;
    long &failed;
    long &attempted;
    std::uint64_t rng;
    std::uint64_t nextId = 0;
    std::uint64_t freshCount = 0;
    std::uint64_t scaleBase = 0; ///< seeded offset of fresh scales
    std::vector<Spec> pool, recent, pendingFresh;
    std::unordered_map<std::string, std::string> cellBytes, exports;
    bool aborted = false;

    std::mutex mu; ///< guards reqs and strayErrors
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, ReqState> reqs;
    long strayErrors = 0;

    std::thread reader; ///< declared last: uses every member above
};

// ------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool integer = false;
};

std::string
fmt(const Metric &m)
{
    char buf[64];
    if (m.integer)
        std::snprintf(buf, sizeof buf, "%.0f", m.value);
    else
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
    return buf;
}

std::string
resultLine(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        os << (i ? "," : "") << json::quote(metrics[i].name)
           << ":{\"value\":" << fmt(metrics[i])
           << ",\"unit\":" << json::quote(metrics[i].unit) << "}";
    }
    os << "}}";
    return os.str();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spans = v;
        else
            return std::nullopt;
    }
    if (argc % 2 != 1 || a.seconds <= 0 || !planFor(a.workload))
        return std::nullopt;
    return a;
}

int
run(const Args &args)
{
    const WorkloadPlan plan = *planFor(args.workload);
    Tracer tracer(args.trace);
    long attempted = 0, failed = 0;

    // ---- untimed warm-up: calibrate set-up, fill every cache
    const RunConfig setupBase =
        plan.grid
            ? baseConfig(plan.specFrontEnd, kSweepWarmup, kSweepMeasure)
            : baseConfig(plan.specFrontEnd, kServeWarmup, kServeMeasure);
    SetupMeter setup(setupBase, tracer);
    setup.calibrate();

    std::unique_ptr<GridDriver> grid;
    if (plan.grid) {
        grid = std::make_unique<GridDriver>(plan.specFrontEnd, tracer,
                                            failed, attempted);
        grid->warm();
    }
    auto serve = std::make_unique<ServeDriver>(
        plan.specFrontEnd, args.seed, tracer, failed, attempted);
    serve->warm();

    // ---- timed loop: whole iterations until the time is up and the
    // count prefix is complete; set-up reps spread over the window. Only
    // rep 0 runs before the prefix ends, so the work behind the peak-RSS
    // read is fixed and does not depend on host speed.
    const auto start = Clock::now();
    const double windowMs = args.seconds * 1e3;
    int setupDone = 0;
    double peakRss = 0;
    for (long iter = 0;; iter++) {
        const double elapsed = msSince(start, Clock::now());
        const bool prefixDone =
            (!grid || grid->passes >= kPrefixPasses) &&
            serve->cycles >= kPrefixCycles;
        if (prefixDone && peakRss == 0)
            peakRss = peakRssMib();
        if (elapsed >= windowMs && prefixDone)
            break;
        if (setupDone < kSetupReps && (setupDone == 0 || prefixDone) &&
            elapsed >= windowMs * setupDone / kSetupReps) {
            setup.rep();
            setupDone++;
        }
        if (grid)
            grid->pass();
        for (int c = 0; c < plan.cyclesPerIter; c++)
            serve->cycle();
    }
    while (setupDone < kSetupReps) {
        setup.rep();
        setupDone++;
    }
    failed += serve->strays();

    std::printf("# workload %s seed %llu: %ld grid passes, %d serve "
                "cycles, %zu requests timed, final peak RSS %.1f MiB\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                grid ? grid->passes : 0L, serve->cycles,
                serve->latencyMs.size(), peakRssMib());
    if (grid)
        std::printf("# digest grid 0x%016llx\n",
                    static_cast<unsigned long long>(grid->digest()));
    std::printf("# digest serve 0x%016llx\n",
                static_cast<unsigned long long>(serve->digest));

    // ---- end-to-end metrics. Slow host phases can cover most of a
    // run and move a median by a third between runs of the same input,
    // so each host-time metric is the best of many equal-work samples:
    // grid cells of one identity, set-up repetitions, simulating
    // requests, serve cycles (each of the same request mix).
    std::vector<Metric> e2e;
    e2e.push_back({"sim_minst_per_s",
                   grid ? grid->bestMinstPerS() : best(serve->simRates, true),
                   "Minst/s"});
    e2e.push_back({"setup_s", best(setup.setupS, false), "s"});
    e2e.push_back({"peak_rss_mib", peakRss, "MiB"});
    e2e.push_back({"req_ms_p50", best(serve->cycleP50, false), "ms"});
    e2e.push_back({"serve_cells_per_s", best(serve->cycleCellsPerS, true),
                   "1/s"});

    const bool correct = failed == 0 && attempted > 0;
    if (!args.trace) {
        std::printf("%s\n",
                    resultLine(correct, attempted, failed, e2e).c_str());
        return 0;
    }

    // traced run: end-to-end figures for the overhead comparison
    std::printf("# traced e2e %s\n",
                resultLine(correct, attempted, failed, e2e).c_str());
    if (!args.spans.empty() && !tracer.write(args.spans))
        std::fprintf(stderr, "siqbench: cannot write %s\n",
                     args.spans.c_str());

    std::vector<Metric> pl;
    auto count = [&](const std::string &n, double v) {
        pl.push_back({n, v, "count", true});
    };
    pl.push_back({"workloads.generate_ms", median(setup.generateMs), "ms"});
    pl.push_back({"compiler.annotate_ms", median(setup.annotateMs), "ms"});
    count("compiler.blocks_analyzed",
          static_cast<double>(setup.blocksAnalyzed));
    pl.push_back({"trace.produce_ms", median(setup.produceMs), "ms"});
    pl.push_back({"trace.ns_per_record",
                  median(setup.produceMs) * 1e6 /
                      static_cast<double>(setup.records),
                  "ns"});
    count("trace.records_produced", static_cast<double>(setup.records));

    const SweepCacheStats cs =
        grid ? grid->cacheAfterCold : serve->prefixCache;
    count("trace_cache.builds", static_cast<double>(cs.traceBuilds));
    count("trace_cache.hits", static_cast<double>(cs.traceHits));
    count("trace_cache.evicted", static_cast<double>(cs.traceEvicted));
    pl.push_back({"trace_cache.resident_mib",
                  static_cast<double>(cs.traceBytes) / (1 << 20), "MiB"});

    std::vector<double> allCellMs;
    std::map<std::string, std::vector<double>> famRates, techMs;
    if (grid) {
        const auto &fams = grid->spec_.benchmarks;
        const auto &techs = grid->spec_.techniques;
        for (std::size_t i = 0; i < grid->rates.size(); i++) {
            auto &fr = famRates[fams[i % fams.size()]];
            fr.insert(fr.end(), grid->rates[i].begin(),
                      grid->rates[i].end());
            auto &tm = techMs[techs[i / fams.size()]];
            tm.insert(tm.end(), grid->cellMs[i].begin(),
                      grid->cellMs[i].end());
            allCellMs.insert(allCellMs.end(), grid->cellMs[i].begin(),
                             grid->cellMs[i].end());
        }
    }
    pl.push_back({"core.cell_ms_p50", quantile(allCellMs, 0.5), "ms"});
    pl.push_back({"core.cell_ms_p90", quantile(allCellMs, 0.9), "ms"});
    for (const auto &f : kFamilies)
        pl.push_back({"core.minst_per_s." + f, median(famRates[f]),
                      "Minst/s"});
    for (const auto &t : kTechniques)
        pl.push_back({"core.cell_ms." + t, median(techMs[t]), "ms"});
    pl.push_back({"core.ns_per_cycle",
                  grid ? median(grid->nsPerCycle) : 0.0, "ns"});
    pl.push_back({"core.ns_per_fetched",
                  grid ? median(grid->nsPerFetched) : 0.0, "ns"});

    const GridCounts gc = grid ? grid->counts : GridCounts{};
    count("core.cycles", static_cast<double>(gc.cycles));
    count("core.committed", static_cast<double>(gc.committed));
    count("core.fetched", static_cast<double>(gc.fetched));
    count("core.dispatched", static_cast<double>(gc.dispatched));
    count("core.issued", static_cast<double>(gc.issued));
    count("core.branch_mispredicts", static_cast<double>(gc.mispredicts));
    count("core.wrong_path_fetched",
          static_cast<double>(gc.wrongPathFetched));
    count("core.squashes", static_cast<double>(gc.squashes));
    count("core.squashed_insts", static_cast<double>(gc.squashedInsts));
    // CoreStats::fetched counts the correct path only
    pl.push_back({"core.wrong_path_share",
                  gc.fetched ? static_cast<double>(gc.wrongPathFetched) /
                                   static_cast<double>(gc.fetched +
                                                       gc.wrongPathFetched)
                             : 0.0,
                  "ratio"});
    count("iq.broadcasts", static_cast<double>(gc.broadcasts));
    count("iq.cmp_powered", static_cast<double>(gc.cmpPowered));
    count("iq.dispatch_writes", static_cast<double>(gc.dispatchWrites));
    count("iq.issue_reads", static_cast<double>(gc.issueReads));
    pl.push_back({"iq.occupancy_avg",
                  gc.iqCycles ? static_cast<double>(gc.occupancySum) /
                                    static_cast<double>(gc.iqCycles)
                              : 0.0,
                  "entries"});

    pl.push_back({"report.export_ms",
                  grid ? median(grid->exportMs) : 0.0, "ms"});
    pl.push_back({"report.export_bytes",
                  grid ? static_cast<double>(grid->referenceExport.size())
                       : median(serve->exportSizes),
                  "bytes", true});
    std::vector<double> parseUs = serve->specParseUs;
    if (grid)
        parseUs.insert(parseUs.end(), grid->specParseUs.begin(),
                       grid->specParseUs.end());
    pl.push_back({"json.spec_parse_us", median(parseUs), "us"});

    pl.push_back({"serve.accept_ms_p50", median(serve->acceptMs), "ms"});
    pl.push_back({"serve.hit_req_ms_p50", median(serve->hitMs), "ms"});
    pl.push_back({"serve.shared_req_ms_p50", median(serve->sharedMs), "ms"});
    pl.push_back({"serve.fresh_req_ms_p50", median(serve->freshMs), "ms"});
    // the tail of req_ms_p50; per-layer, because its run-to-run spread
    // is not held within a tenth
    pl.push_back({"serve.req_ms_p90", best(serve->cycleP90, false), "ms"});
    const ServeEngine::Stats &ss = serve->prefixStats;
    count("serve.cells_simulated", static_cast<double>(ss.cellsSimulated));
    count("serve.cells_shared", static_cast<double>(ss.cellsShared));
    count("serve.cells_cached", static_cast<double>(ss.cellsCached));
    count("serve.errors", static_cast<double>(ss.errors));
    const std::uint64_t delivered =
        ss.cellsSimulated + ss.cellsShared + ss.cellsCached;
    pl.push_back({"serve.dedupe_ratio",
                  delivered ? static_cast<double>(ss.cellsShared +
                                                  ss.cellsCached) /
                                  static_cast<double>(delivered)
                            : 0.0,
                  "ratio"});

    // self time per span instance, median; leaf spans already reported
    // above under their layer's name (core.cell, report.writeJson,
    // json.tryReadSpecJson) are left out
    const auto self = tracer.selfTimesMs();
    for (const char *name :
         {"setup", "workloads.generate", "compiler.annotate",
          "trace.produce", "sweep.run", "serve.round", "serve.request",
          "serve.submitLine"}) {
        const auto it = self.find(name);
        pl.push_back({std::string("self_ms.") + name,
                      it == self.end() ? 0.0 : median(it->second), "ms"});
    }

    std::printf("%s\n", resultLine(correct, attempted, failed, pl).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: siqbench --workload sweep_oracle|sweep_spec|"
                     "serve_mixed --seed N --seconds S --trace 0|1 "
                     "[--spans FILE]\n");
        return 2;
    }
    try {
        return run(*args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "siqbench: %s\n", e.what());
        return 1;
    }
}
