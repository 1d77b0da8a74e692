/**
 * @file
 * Range sweep: force the compiler to believe the IQ has only R
 * entries (so every emitted hint is <= R) and measure the IPC cost on
 * the real 80-entry machine. This exposes each workload's sensitivity
 * to window size — the curve the paper's technique exploits (flat
 * curves mean free power savings; steep curves need accurate hints).
 *
 * The forced window is a compiler-side fiction with no RunConfig
 * field, so the example annotates each program itself — the Extension
 * (tag) scheme's config with the pseudo-IQ shrunk to R — and runs it
 * through simulateProgram under the Extension technique, serially.
 *
 * Usage: range_sweep [benchmark ...]
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "compiler/pass.hh"
#include "sim/simulator.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    std::vector<std::string> benches;
    for (int i = 1; i < argc; i++)
        benches.emplace_back(argv[i]);
    if (benches.empty())
        benches = {"gzip", "mcf", "vortex", "bzip2", "gcc"};

    const std::vector<int> ranges = {4, 8, 16, 32, 48, 80};

    sim::RunConfig cfg;
    cfg.warmupInsts = 100000;
    cfg.measureInsts = 300000;
    const auto &baseline = sim::techniqueDef(sim::Technique::Baseline);
    const auto &extension = sim::techniqueDef(sim::Technique::Extension);

    std::vector<std::string> headers = {"benchmark", "base IPC"};
    for (int r : ranges)
        headers.push_back("R<=" + std::to_string(r));
    Table t(headers);

    for (const auto &bench : benches) {
        const Program prog = workloads::generate(bench, cfg.workload);
        const auto base = sim::simulateProgram(prog, baseline, cfg);
        std::vector<std::string> row = {bench,
                                        Table::fmt(base.ipc(), 3)};
        for (int r : ranges) {
            auto cc = *sim::compilerConfigFor(sim::Technique::Extension,
                                              cfg);
            cc.minHint = 1;
            cc.machine.iqSize = r; // forces every hint <= r
            Program hinted = prog;
            compiler::annotate(hinted, cc);
            const auto cell = sim::simulateProgram(hinted, extension, cfg);
            const double loss = 1.0 - cell.ipc() / base.ipc();
            row.push_back(Table::pct(loss) + "/" +
                          Table::fmt(cell.avgIqOccupancy(), 0));
        }
        t.addRow(row);
    }
    std::cout << "cells: IPC loss vs baseline / avg occupancy ("
              << benches.size() * (ranges.size() + 1) << " runs)\n";
    t.print(std::cout);
    return 0;
}
