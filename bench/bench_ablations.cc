/**
 * @file
 * Design-choice ablations (DESIGN.md §5):
 *  A1 clamp-floor sweep — how the minHint floor trades IPC for power;
 *  A2 bank granularity — 5x16 / 10x8 / 20x4 bank splits;
 *  A3 redundant-hint elision on/off (NOOP-count and IPC effect).
 *
 * Every ablation is a declarative sweep over built-in techniques that
 * varies one serialized RunConfig field (minHint, core.iq.bankSize,
 * elideRedundant), all through one shared ExperimentRunner, so the
 * three-benchmark subset is synthesized once for the whole binary
 * and the cells run in parallel. Run on a subset to keep the binary
 * quick.
 */

#include <functional>
#include <iostream>

#include "common/table.hh"
#include "sim/sweep.hh"

namespace
{

using namespace siq;

const std::vector<std::string> subset = {"gzip", "vortex", "mcf"};

/** Per-cell budgets: a lighter cut of the figure benches' 120k+400k. */
constexpr std::uint64_t warmupInsts = 80000;
constexpr std::uint64_t measureInsts = 250000;

sim::SweepResult
runSubset(sim::ExperimentRunner &runner,
          const std::vector<std::string> &techniques,
          const std::function<void(sim::RunConfig &)> &tune = {})
{
    sim::SweepSpec spec;
    spec.benchmarks = subset;
    spec.techniques = techniques;
    spec.base.warmupInsts = warmupInsts;
    spec.base.measureInsts = measureInsts;
    if (tune)
        tune(spec.base);
    return runner.run(spec);
}

void
clampSweep(sim::ExperimentRunner &runner)
{
    std::cout << "==== A1: hint clamp floor sweep ====\n\n";

    const std::vector<int> floors = {4, 8, 12, 16};
    // the floor only changes the noop annotation, so one baseline
    // sweep serves every floor
    const auto baseline = runSubset(runner, {"baseline"});
    std::vector<sim::SweepResult> sweeps;
    for (int floor : floors) {
        sweeps.push_back(runSubset(runner, {"noop"},
                                   [floor](sim::RunConfig &cfg) {
                                       cfg.minHint = floor;
                                   }));
    }

    Table t({"benchmark", "floor", "IPC loss", "IQ dyn saving"});
    for (std::size_t b = 0; b < subset.size(); b++) {
        const auto &base = baseline.at("baseline", b);
        for (std::size_t f = 0; f < floors.size(); f++) {
            const auto &r = sweeps[f].at("noop", b);
            const auto cmp = sim::comparePower(base, r);
            t.addRow({subset[b], std::to_string(floors[f]),
                      Table::pct(sim::ipcLoss(base, r)),
                      Table::pct(cmp.iqDynamicSaving)});
        }
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
bankSweep(sim::ExperimentRunner &runner)
{
    std::cout << "==== A2: IQ bank granularity ====\n\n";
    const std::vector<int> bankSizes = {16, 8, 4};
    // bank geometry is a machine change: one sweep per geometry, but
    // the same cached workload programs serve every geometry
    std::vector<sim::SweepResult> sweeps;
    for (int bankSize : bankSizes) {
        sweeps.push_back(
            runSubset(runner, {"baseline", "noop"},
                      [bankSize](sim::RunConfig &cfg) {
                          cfg.core.iq.bankSize = bankSize;
                      }));
    }
    Table t({"benchmark", "banks", "banks off", "IQ stat saving"});
    for (std::size_t b = 0; b < subset.size(); b++) {
        for (std::size_t s = 0; s < bankSizes.size(); s++) {
            const auto &base = sweeps[s].at("baseline", b);
            const auto &r = sweeps[s].at("noop", b);
            const auto cmp = sim::comparePower(base, r);
            t.addRow({subset[b],
                      std::to_string(80 / bankSizes[s]) + "x" +
                          std::to_string(bankSizes[s]),
                      Table::pct(r.iqBanksOffFraction()),
                      Table::pct(cmp.iqStaticSaving)});
        }
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
elisionAblation(sim::ExperimentRunner &runner)
{
    std::cout << "==== A3: redundant-hint elision ====\n\n";

    const auto on = runSubset(runner, {"baseline", "noop"});
    const auto off = runSubset(runner, {"noop"}, [](sim::RunConfig &cfg) {
        cfg.elideRedundant = false;
    });

    Table t({"benchmark", "elide", "hint noops", "IPC loss"});
    for (std::size_t b = 0; b < subset.size(); b++) {
        const auto &base = on.at("baseline", b);
        for (const auto *sweep : {&on, &off}) {
            const auto &r = sweep->at("noop", b);
            t.addRow({subset[b], sweep == &on ? "on" : "off",
                      std::to_string(r.compile.hintNoopsInserted),
                      Table::pct(sim::ipcLoss(base, r))});
        }
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    using namespace siq;
    // one engine for the whole binary: the subset's workloads are
    // synthesized once and reused by all three ablations
    sim::ExperimentRunner runner;
    clampSweep(runner);
    bankSweep(runner);
    elisionAblation(runner);
    const auto cache = runner.cacheStats();
    std::cerr << "engine cache: " << cache.workloadBuilds
              << " workload builds, " << cache.workloadHits
              << " hits; " << cache.compileBuilds
              << " compile builds, " << cache.compileHits
              << " hits\n";
    return 0;
}
