/**
 * @file
 * A5: simulator throughput (google-benchmark).
 *
 * `simspeed/<workload>` measures raw `Core::run` throughput
 * (simulated Minst per host second) for every registered workload
 * family (default parameters) — the acceptance measurement for
 * hot-path work on the core model; the perf target of a core
 * refactor is the geomean over these per-family rates. `annotateOnly` isolates the compiler pass and
 * `sweepFig8Matrix` runs the figure-8 benchmark×technique matrix
 * through the experiment engine serially vs fanned out over the
 * worker pool (budgets scaled down so an iteration stays in the
 * milliseconds-to-seconds range).
 *
 * With `SIQSIM_JSON=<path>` the binary additionally writes a
 * machine-readable throughput report for the simspeed benchmarks
 * that ran: a `{"workload", "minst_per_s"}` array plus their geomean
 * — the cross-PR perf trajectory record (docs/ENVIRONMENT.md).
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace
{

using namespace siq;

constexpr std::uint64_t simspeedInstsPerIter = 100000;

void
simspeed(benchmark::State &state, const std::string &name)
{
    workloads::WorkloadParams wp;
    const Program prog = workloads::generate(name, wp);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        Core core(prog, CoreConfig{});
        insts += core.run(simspeedInstsPerIter);
        benchmark::DoNotOptimize(core.stats().cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}

void
annotateOnly(benchmark::State &state, const std::string &name)
{
    for (auto _ : state) {
        Program prog = workloads::generate(name, {});
        compiler::CompilerConfig cfg;
        benchmark::DoNotOptimize(
            compiler::annotate(prog, cfg).blocksAnalyzed);
    }
}

BENCHMARK_CAPTURE(annotateOnly, gcc, std::string("gcc"))
    ->Unit(benchmark::kMillisecond);

/**
 * The fig8 matrix (full suite × baseline/noop/abella) through the
 * sweep engine. The Arg is the worker count; 0 = hardware
 * concurrency. A fresh runner per iteration, so every iteration pays
 * workload synthesis and compilation once each (as a figure binary
 * would) and the serial/threaded comparison is apples-to-apples.
 */
void
sweepFig8Matrix(benchmark::State &state)
{
    sim::SweepSpec spec;
    spec.benchmarks = workloads::benchmarkNames();
    spec.techniques = {"baseline", "noop", "abella"};
    spec.base.workload.repDivisor = 8;
    spec.base.warmupInsts = 10000;
    spec.base.measureInsts = 50000;
    spec.jobs = static_cast<int>(state.range(0));

    std::uint64_t cells = 0;
    for (auto _ : state) {
        sim::ExperimentRunner runner;
        const auto sweep = runner.run(spec);
        cells += sweep.cells.size();
        benchmark::DoNotOptimize(sweep.cells.front().stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cells));
    state.counters["jobs"] = static_cast<double>(
        spec.jobs > 0 ? spec.jobs
                      : std::thread::hardware_concurrency());
}

BENCHMARK(sweepFig8Matrix)
    ->Arg(1) // serial reference
    ->Arg(0) // hardware concurrency
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * The trace-replay payoff case (DESIGN.md §11): every registered
 * technique × 2 seeds over four benchmarks, serial. Each distinct
 * program is interpreted once into a functional trace and every
 * other cell replays it.
 */
void
sweepAllTechniques(benchmark::State &state)
{
    sim::SweepSpec spec;
    spec.benchmarks = {"gzip", "mcf", "crafty", "specfp"};
    spec.techniques = sim::techniqueNames();
    spec.base.workload.repDivisor = 8;
    spec.base.warmupInsts = 10000;
    spec.base.measureInsts = 50000;
    spec.seeds = 2;
    spec.jobs = 1;

    std::uint64_t cells = 0;
    for (auto _ : state) {
        sim::ExperimentRunner runner;
        const auto sweep = runner.run(spec);
        cells += sweep.cells.size();
        benchmark::DoNotOptimize(sweep.cells.front().stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cells));
    state.counters["techniques"] =
        static_cast<double>(spec.techniques.size());
}

BENCHMARK(sweepAllTechniques)->Unit(benchmark::kMillisecond);

/**
 * Console reporter that additionally captures the simspeed
 * throughput rates so main() can emit the SIQSIM_JSON report.
 */
class SimspeedReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const auto &run : reports) {
            const std::string name = run.benchmark_name();
            constexpr const char *prefix = "simspeed/";
            // skip repetition aggregates (mean/median/stddev rows):
            // the report wants one per-workload rate, not statistics
            // whose names also carry the simspeed/ prefix
            if (run.error_occurred ||
                run.run_type != Run::RT_Iteration ||
                name.rfind(prefix, 0) != 0) {
                continue;
            }
            const auto it = run.counters.find("items_per_second");
            if (it == run.counters.end())
                continue;
            record(name.substr(std::string(prefix).size()),
                   static_cast<double>(it->second) / 1e6);
        }
        ConsoleReporter::ReportRuns(reports);
    }

    const std::vector<std::pair<std::string, double>> &
    results() const
    {
        return rates;
    }

  private:
    void
    record(const std::string &workload, double minstPerS)
    {
        for (auto &[w, r] : rates) {
            if (w == workload) {
                r = minstPerS; // repetition: keep the latest
                return;
            }
        }
        rates.emplace_back(workload, minstPerS);
    }

    std::vector<std::pair<std::string, double>> rates;
};

/** `{"workload", "minst_per_s"}` array + geomean, as JSON. */
void
writeThroughputJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, double>> &rates)
{
    os << "{\n  \"benchmarks\": [\n";
    double logSum = 0.0;
    for (std::size_t i = 0; i < rates.size(); i++) {
        logSum += std::log(rates[i].second);
        os << "    {\"workload\": \"" << rates[i].first
           << "\", \"minst_per_s\": " << rates[i].second << "}"
           << (i + 1 < rates.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"geomean_minst_per_s\": "
       << (rates.empty()
               ? 0.0
               : std::exp(logSum / static_cast<double>(rates.size())))
       << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // every registered family (the eleven SPECint profiles plus the
    // parameterized families at their defaults) gets a simspeed/
    // benchmark and a row in the SIQSIM_JSON throughput report
    for (const auto &name : workloads::familyNames()) {
        benchmark::RegisterBenchmark(
            ("simspeed/" + name).c_str(),
            [name](benchmark::State &state) { simspeed(state, name); })
            ->Unit(benchmark::kMillisecond);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    SimspeedReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (const char *path = std::getenv("SIQSIM_JSON");
        path != nullptr && !reporter.results().empty()) {
        std::ofstream os(path, std::ios::trunc);
        writeThroughputJson(os, reporter.results());
        os.flush();
        if (!os) {
            std::cerr << "bench_simspeed: cannot write '" << path
                      << "'\n";
            return 1;
        }
        std::cerr << "wrote " << path << "\n";
    }
    return 0;
}
