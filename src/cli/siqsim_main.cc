/**
 * @file
 * `siqsim` — the command-line driver for sharded, resumable
 * experiment sweeps (DESIGN.md §8, docs/ENVIRONMENT.md):
 *
 *   siqsim spec  ...   print a sweep-spec JSON for a grid
 *   siqsim run   ...   run a spec (whole, or one shard of N, with
 *                      per-cell checkpointing and resume)
 *   siqsim merge ...   fold shard checkpoint directories back into
 *                      the canonical single-file JSON/CSV
 *   siqsim status ...  report cells done/missing (per shard) for a
 *                      checkpoint run directory
 *   siqsim list        list workload families and techniques
 *
 * `run` and `merge` emit *canonical* exports: scheduling and
 * wall-clock metadata are zeroed (sim::canonicalize), so the same
 * spec produces byte-identical files whether it ran on 1 thread or
 * 16, in one process or N shards, straight through or killed and
 * resumed. `diff` is the integrity check.
 */

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "sim/serve.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace
{

using namespace siq;
namespace fs = std::filesystem;

int
usage(std::ostream &os, int rc)
{
    os << R"(siqsim — sharded, resumable sweep runner (see README.md)

usage:
  siqsim spec [options]             print a sweep-spec JSON
  siqsim run --spec FILE [options]  run a spec, whole or one shard
  siqsim merge DIR... [options]     fold checkpoint dirs into one matrix
  siqsim status DIR [--shards N] [--cache]
                                    cells done/missing in a run dir
  siqsim list                       list workload families and techniques
  siqsim serve --socket PATH | --stdio
                                    long-lived simulation daemon (JSONL)

spec options (grid axes and budgets; all optional):
  --workloads a,b,... | all | specint
                               workloads to sweep (default: all, every
                               registered family; specint: the paper's
                               eleven). Entries are workload specs: a
                               family name, optionally with parameter
                               overrides — 'phased:period=60000:duty=20'
                               ('siqsim list' shows families + params;
                               --benchmarks is accepted as an alias)
  --techniques a,b,... | all   techniques to sweep (default: all six)
  --warmup N / --measure N     per-cell instruction budgets
  --seeds N                    replicas per cell (0 = SIQSIM_SEEDS, 1 = off)
  --jobs N                     worker threads (0 = all cores)
  --scale N / --rep-divisor N  workload size knobs
  --seed N                     base workload seed
  --speculative                model the real front end (gshare + BTB +
                               RAS with wrong-path fetch and squash
                               recovery) instead of the oracle
  --out FILE                   write the spec there instead of stdout

run options:
  --spec FILE                  the spec to run (required)
  --shard i/N                  run only cells with index % N == i
                               (requires --ckpt)
  --ckpt DIR                   checkpoint run directory: finished cells
                               are published atomically as they finish,
                               and already-checkpointed cells are
                               skipped on restart
  --jobs N / --seeds N         override the spec's values
  --json/--csv/--power-csv FILE   canonical exports ('-' = stdout)
  --baseline NAME              power-CSV baseline technique [baseline]

merge options:
  DIR...                       checkpoint dirs written by 'run' (one
                               shared dir, or one per shard)
  --json/--csv/--power-csv FILE, --baseline NAME   as for run

status options:
  DIR                          a checkpoint run directory (its
                               spec.json names the grid)
  --shards N                   additionally break the report down by
                               the N-way shard partition cells were
                               (or will be) run under
  --cache                      also print the workload/compile/trace
                               cache counters each 'run' invocation
                               recorded in the run directory
  exit status: 0 when every cell is checkpointed, 3 when cells are
  still missing (distinct from 1, a usage/IO error)

serve options (protocol: DESIGN.md §13):
  --socket PATH                listen on a unix domain socket; each
                               connection is an independent client
  --stdio                      serve one client over stdin/stdout
                               (tests, inetd-style supervisors)
  --jobs N                     default worker threads per request
                               (0 = SIQSIM_SERVE_JOBS / cores)
  requests:  {"id":"r1","spec":{...}}   {"cancel":"r1"}
  responses: accepted / cell / done / error records, one per line;
  workload, compiled-program and trace caches are shared across
  requests, and identical in-flight cells from concurrent clients
  are simulated once. Env: SIQSIM_SERVE_QUEUE (per-client record
  queue, default 256), SIQSIM_SERVE_RESULT_CACHE (completed-cell
  LRU, default 1024), SIQSIM_SERVE_JOBS.

The merge of N shard directories is byte-identical to the same spec
run unsharded — both are canonical exports of the same pure function.
)";
    return rc;
}

/** argv cursor: flags may appear in any order after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; i++)
            tokens.emplace_back(argv[i]);
    }

    /** Consume `--name VALUE`; nullopt when absent. */
    std::optional<std::string>
    option(const std::string &name)
    {
        for (std::size_t i = 0; i < tokens.size(); i++) {
            if (tokens[i] != "--" + name)
                continue;
            if (i + 1 >= tokens.size())
                fatal("siqsim: --", name, " needs a value");
            std::string value = tokens[i + 1];
            tokens.erase(tokens.begin() + static_cast<long>(i),
                         tokens.begin() + static_cast<long>(i) + 2);
            return value;
        }
        return std::nullopt;
    }

    /** Consume a bare `--name` flag; false when absent. */
    bool
    flag(const std::string &name)
    {
        for (std::size_t i = 0; i < tokens.size(); i++) {
            if (tokens[i] != "--" + name)
                continue;
            tokens.erase(tokens.begin() + static_cast<long>(i));
            return true;
        }
        return false;
    }

    /** Whatever is left (positional arguments); flags left over are
     *  an error the caller reports. */
    const std::vector<std::string> &rest() const { return tokens; }

    void
    expectConsumed() const
    {
        for (const auto &t : tokens) {
            fatal("siqsim: unrecognized argument '", t,
                  "' (see siqsim --help)");
        }
    }

  private:
    std::vector<std::string> tokens;
};

long
toLong(const std::string &name, const std::string &value)
{
    std::size_t end = 0;
    long v = 0;
    try {
        v = std::stol(value, &end);
    } catch (const std::exception &) {
        end = 0;
    }
    if (end != value.size())
        fatal("siqsim: --", name, " expects an integer, got '", value,
              "'");
    return v;
}

/** For unsigned config fields: a negative value must not wrap into
 *  an astronomically large budget or seed. */
std::uint64_t
toU64(const std::string &name, const std::string &value)
{
    const long v = toLong(name, value);
    if (v < 0)
        fatal("siqsim: --", name, " must be >= 0, got '", value, "'");
    return static_cast<std::uint64_t>(v);
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Write to a file, or stdout for "-"; fatal on IO errors. */
void
writeOut(const std::string &path,
         const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream os(path, std::ios::trunc);
    if (os)
        write(os);
    os.flush();
    if (!os)
        fatal("siqsim: cannot write '", path, "'");
    std::cerr << "wrote " << path << "\n";
}

/** One-line cache-counter summary: the `siqsim run` stderr line and
 *  the `status --cache` per-file lines share this format. */
std::string
cacheSummary(const sim::SweepCacheStats &c)
{
    std::ostringstream os;
    os << "workloads " << c.workloadHits << "/"
       << c.workloadBuilds + c.workloadHits << " hits, compile "
       << c.compileHits << "/" << c.compileBuilds + c.compileHits
       << " hits, traces " << c.traceHits << "/"
       << c.traceBuilds + c.traceHits << " hits";
    if (c.traceBuilds + c.traceHits > 0) {
        os << " (" << (c.traceBytes >> 20) << " MiB resident, "
           << c.traceEvicted << " evicted)";
    }
    return os.str();
}

/** The canonical exports shared by `run` and `merge`. */
struct ExportPaths
{
    std::optional<std::string> json, csv, powerCsv;
    std::string baseline = "baseline";

    void
    take(Args &args)
    {
        json = args.option("json");
        csv = args.option("csv");
        powerCsv = args.option("power-csv");
        if (auto b = args.option("baseline"))
            baseline = *b;
    }

    void
    emit(sim::SweepResult result) const
    {
        sim::canonicalize(result);
        if (json) {
            writeOut(*json, [&](std::ostream &os) {
                sim::writeJson(os, result);
            });
        }
        if (csv) {
            writeOut(*csv, [&](std::ostream &os) {
                sim::writeCsv(os, result);
            });
        }
        if (powerCsv) {
            writeOut(*powerCsv, [&](std::ostream &os) {
                sim::writePowerCsv(os, result, baseline);
            });
        }
    }
};

int
cmdSpec(Args args)
{
    sim::SweepSpec spec;
    spec.benchmarks = workloads::familyNames();
    spec.techniques = sim::techniqueNames();
    // --workloads is the primary spelling; --benchmarks is kept as a
    // compatibility alias (both accept workload specs, not just names)
    auto workloadsOpt = args.option("workloads");
    auto benchmarksOpt = args.option("benchmarks");
    if (workloadsOpt && benchmarksOpt)
        fatal("siqsim: --workloads and --benchmarks are aliases; "
              "pass only one");
    if (!workloadsOpt)
        workloadsOpt = benchmarksOpt;
    if (workloadsOpt && *workloadsOpt == "specint")
        spec.benchmarks = workloads::benchmarkNames();
    else if (workloadsOpt && *workloadsOpt != "all")
        spec.benchmarks = splitList(*workloadsOpt);
    if (auto v = args.option("techniques"); v && *v != "all")
        spec.techniques = splitList(*v);
    // canonicalize and validate now, so a typo fails here with the
    // registered families listed instead of deep inside a run
    for (auto &b : spec.benchmarks)
        b = workloads::canonicalWorkload(b);
    for (const auto &t : spec.techniques) {
        if (sim::findTechnique(t) == nullptr)
            fatal("siqsim: unknown technique '", t, "' (try 'siqsim "
                  "list')");
    }
    if (auto v = args.option("warmup"))
        spec.base.warmupInsts = toU64("warmup", *v);
    if (auto v = args.option("measure"))
        spec.base.measureInsts = toU64("measure", *v);
    if (auto v = args.option("seeds"))
        spec.seeds = static_cast<int>(toLong("seeds", *v));
    if (auto v = args.option("jobs"))
        spec.jobs = static_cast<int>(toLong("jobs", *v));
    if (auto v = args.option("scale"))
        spec.base.workload.scale = static_cast<int>(toLong("scale", *v));
    if (auto v = args.option("rep-divisor"))
        spec.base.workload.repDivisor =
            static_cast<int>(toLong("rep-divisor", *v));
    if (auto v = args.option("seed"))
        spec.base.workload.seed = toU64("seed", *v);
    if (args.flag("speculative"))
        spec.base.core.specFrontEnd = true;
    const std::string out = args.option("out").value_or("-");
    args.expectConsumed();
    writeOut(out, [&](std::ostream &os) {
        sim::writeSpecJson(os, spec);
    });
    return 0;
}

int
cmdRun(Args args)
{
    const auto specPath = args.option("spec");
    if (!specPath)
        fatal("siqsim run: --spec FILE is required");
    std::ifstream is(*specPath);
    if (!is)
        fatal("siqsim run: cannot read '", *specPath, "'");
    sim::SweepSpec spec = sim::readSpecJson(is);

    if (auto v = args.option("jobs"))
        spec.jobs = static_cast<int>(toLong("jobs", *v));
    if (auto v = args.option("seeds"))
        spec.seeds = static_cast<int>(toLong("seeds", *v));

    const auto shardText = args.option("shard");
    const auto ckptDir = args.option("ckpt");

    ExportPaths exports;
    exports.take(args);
    args.expectConsumed();

    sim::ShardPlan shard;
    if (shardText)
        shard = sim::parseShard(*shardText);
    if (shard.count > 1 && !ckptDir) {
        fatal("siqsim run: --shard produces a partial matrix and "
              "needs --ckpt DIR to publish it for 'siqsim merge'");
    }

    const std::size_t ncells =
        spec.benchmarks.size() * spec.techniques.size();
    std::cerr << "siqsim run: " << spec.benchmarks.size()
              << " benchmarks x " << spec.techniques.size()
              << " techniques = " << ncells << " cells";
    if (shard.count > 1)
        std::cerr << ", shard " << sim::toString(shard);
    std::cerr << "\n";

    sim::ExperimentRunner runner;
    if (!ckptDir) {
        auto result = runner.run(spec);
        std::cerr << "done: " << result.cells.size() << " cells in "
                  << result.wallSeconds << "s on " << result.jobsUsed
                  << " thread(s)\n"
                  << "caches: " << cacheSummary(result.cache) << "\n";
        exports.emit(std::move(result));
        return 0;
    }

    const auto outcome =
        sim::runWithCheckpoints(runner, spec, shard, *ckptDir);
    // publish this invocation's counters beside the checkpoints so
    // 'siqsim status --cache' can report them later
    sim::writeCacheStatsFile(*ckptDir, shard, runner.cacheStats());
    std::cerr << "shard " << sim::toString(shard) << ": owns "
              << outcome.cellsOwned << "/" << outcome.cellsTotal
              << " cells, resumed " << outcome.cellsResumed
              << ", simulated " << outcome.cellsRun << "\n"
              << "caches: " << cacheSummary(runner.cacheStats())
              << "\n";
    if (!outcome.complete) {
        std::cerr << "run directory incomplete: run the remaining "
                     "shards, then 'siqsim merge "
                  << *ckptDir << "'\n";
        if (exports.json || exports.csv || exports.powerCsv) {
            warn("exports not written: the matrix is still partial "
                 "(they are emitted by the completing shard or by "
                 "'siqsim merge')");
        }
        return 0;
    }
    std::cerr << "all " << outcome.cellsTotal
              << " cells checkpointed; emitting merged matrix\n";
    exports.emit(outcome.merged);
    return 0;
}

int
cmdMerge(Args args)
{
    ExportPaths exports;
    exports.take(args);
    std::vector<fs::path> dirs;
    for (const auto &t : args.rest()) {
        if (t.rfind("--", 0) == 0)
            fatal("siqsim merge: unrecognized option '", t, "'");
        dirs.emplace_back(t);
    }
    if (dirs.empty())
        fatal("siqsim merge: at least one checkpoint directory is "
              "required");
    auto result = sim::mergeCheckpoints(dirs);
    std::cerr << "merged " << result.cells.size() << " cells from "
              << dirs.size() << " dir(s)";
    if (result.seeds > 1)
        std::cerr << " (" << result.seeds << " seeds per cell)";
    std::cerr << "\n";
    if (!exports.json && !exports.csv && !exports.powerCsv)
        warn("no --json/--csv/--power-csv given: nothing written");
    exports.emit(std::move(result));
    return 0;
}

int
cmdStatus(Args args)
{
    const auto shardsOpt = args.option("shards");
    const bool showCache = args.flag("cache");
    std::vector<std::string> dirs = args.rest();
    if (dirs.size() != 1)
        fatal("siqsim status: exactly one run directory is required");
    const fs::path dir = dirs.front();
    const fs::path specPath = dir / "spec.json";
    std::ifstream is(specPath);
    if (!is) {
        fatal("siqsim status: cannot read '", specPath.string(),
              "' (not a checkpoint run directory?)");
    }
    const sim::SweepSpec spec = sim::readSpecJson(is);

    const std::size_t nb = spec.benchmarks.size();
    const std::vector<bool> have = sim::scanCheckpoints(dir, spec);
    std::size_t done = 0;
    for (const bool h : have)
        done += h ? 1 : 0;

    std::cout << "run dir: " << dir.string() << "\n"
              << "grid: " << nb << " benchmarks x "
              << spec.techniques.size() << " techniques = "
              << have.size() << " cells";
    if (spec.seeds > 1)
        std::cout << " (" << spec.seeds << " seeds per cell)";
    std::cout << "\ncheckpointed: " << done << "/" << have.size()
              << "\n";

    if (shardsOpt) {
        const long n = toLong("shards", *shardsOpt);
        if (n < 1)
            fatal("siqsim status: --shards must be >= 1");
        for (int s = 0; s < n; s++) {
            const sim::ShardPlan plan{s, static_cast<int>(n)};
            std::size_t owned = 0;
            std::size_t ownedDone = 0;
            for (std::size_t i = 0; i < have.size(); i++) {
                if (!sim::ownsCell(plan, i))
                    continue;
                owned++;
                ownedDone += have[i] ? 1 : 0;
            }
            std::cout << "shard " << sim::toString(plan) << ": "
                      << ownedDone << "/" << owned << " done"
                      << (ownedDone == owned ? "" : " — incomplete")
                      << "\n";
        }
    }

    if (showCache) {
        const auto stats = sim::readCacheStatsFiles(dir);
        if (stats.empty()) {
            std::cout << "cache stats: none recorded (written by "
                         "'siqsim run --ckpt')\n";
        }
        for (const auto &[name, c] : stats)
            std::cout << name << ": " << cacheSummary(c) << "\n";
    }

    if (done < have.size()) {
        constexpr std::size_t listCap = 20;
        std::size_t listed = 0;
        std::cout << "missing cells:\n";
        for (std::size_t i = 0; i < have.size(); i++) {
            if (have[i])
                continue;
            if (listed++ == listCap) {
                std::cout << "  ... and "
                          << have.size() - done - listCap
                          << " more\n";
                break;
            }
            std::cout << "  " << i << ": "
                      << spec.techniques[i / nb] << "/"
                      << spec.benchmarks[i % nb] << "\n";
        }
        return 3;
    }
    std::cout << "complete: ready for 'siqsim merge "
              << dir.string() << "'\n";
    return 0;
}

int
cmdList()
{
    std::cout << "workload families:\n";
    for (const auto &name : workloads::familyNames()) {
        const auto *def = workloads::findFamily(name);
        std::cout << "  " << name << " — "
                  << (def ? def->summary : std::string()) << "\n";
        if (def == nullptr)
            continue;
        for (const auto &p : def->params) {
            std::cout << "      " << p.name << "=" << p.defaultValue
                      << " [" << p.minValue << ".." << p.maxValue
                      << "] — " << p.help << "\n";
        }
    }
    std::cout << "techniques:\n";
    for (const auto &t : sim::techniqueNames()) {
        const auto *def = sim::findTechnique(t);
        std::cout << "  " << t << " — "
                  << (def ? def->summary : std::string()) << "\n";
    }
    return 0;
}

int
cmdServe(Args args)
{
    const auto socket = args.option("socket");
    const bool stdio = args.flag("stdio");
    const auto jobs = args.option("jobs");
    args.expectConsumed();
    if (stdio == socket.has_value()) {
        fatal("serve: pass exactly one of --socket PATH or --stdio");
    }

    auto opts = sim::ServeEngine::optionsFromEnv();
    if (!opts)
        fatal(opts.error());
    if (jobs)
        opts.value().jobs = static_cast<int>(toLong("jobs", *jobs));

    sim::ServeEngine engine(opts.value());
    if (stdio) {
        sim::serveStdio(engine, std::cin, std::cout);
        return 0;
    }
    sim::serveUnixSocket(engine, *socket, &std::cerr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    try {
        if (cmd == "--help" || cmd == "-h" || cmd == "help")
            return usage(std::cout, 0);
        if (cmd == "spec")
            return cmdSpec(Args(argc, argv, 2));
        if (cmd == "run")
            return cmdRun(Args(argc, argv, 2));
        if (cmd == "merge")
            return cmdMerge(Args(argc, argv, 2));
        if (cmd == "status")
            return cmdStatus(Args(argc, argv, 2));
        if (cmd == "list")
            return cmdList();
        if (cmd == "serve")
            return cmdServe(Args(argc, argv, 2));
        std::cerr << "siqsim: unknown command '" << cmd << "'\n\n";
        return usage(std::cerr, 2);
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
