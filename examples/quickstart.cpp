/**
 * @file
 * Quickstart: compile one workload with the NOOP scheme, run it next
 * to the unmodified baseline through the experiment engine, and print
 * the paper's headline metrics (IPC loss, occupancy reduction, IQ/RF
 * power savings). The workload is synthesized once and both cells run
 * in parallel when the host has the cores.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/quickstart [benchmark] [scale] [out.json]
 */

#include <fstream>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const int scale = argc > 2 ? std::atoi(argv[2]) : 1;

    sim::SweepSpec spec;
    spec.benchmarks = {bench};
    spec.techniques = {"baseline", "noop"};
    spec.base.workload.scale = scale;
    spec.base.warmupInsts = 100000;
    spec.base.measureInsts = 400000;

    std::cout << "siqsim quickstart: benchmark '" << bench
              << "', Table-1 machine (80-entry IQ, 8-wide)\n\n";

    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);
    const auto &base = sweep.at("baseline", 0);
    const auto &noop = sweep.at("noop", 0);
    const auto power = sim::comparePower(base, noop);

    Table t({"metric", "baseline", "noop-scheme"});
    t.addRow({"IPC", Table::fmt(base.ipc(), 3),
              Table::fmt(noop.ipc(), 3)});
    t.addRow({"avg IQ occupancy", Table::fmt(base.avgIqOccupancy(), 1),
              Table::fmt(noop.avgIqOccupancy(), 1)});
    t.addRow({"IQ banks off", Table::pct(base.iqBanksOffFraction()),
              Table::pct(noop.iqBanksOffFraction())});
    t.addRow({"hints applied", "0",
              std::to_string(noop.stats.hintsApplied)});
    t.print(std::cout);

    std::cout << "\nIPC loss:            "
              << Table::pct(1.0 - noop.ipc() / base.ipc()) << '\n';
    std::cout << "IQ dynamic saving:   "
              << Table::pct(power.iqDynamicSaving) << '\n';
    std::cout << "IQ static saving:    "
              << Table::pct(power.iqStaticSaving) << '\n';
    std::cout << "RF dynamic saving:   "
              << Table::pct(power.rfDynamicSaving) << '\n';
    std::cout << "RF static saving:    "
              << Table::pct(power.rfStaticSaving) << '\n';
    std::cout << "(nonEmpty gating alone would save "
              << Table::pct(power.nonEmptySaving) << " dynamic)\n";
    std::cout << "engine: " << sweep.cells.size() << " cells, "
              << sweep.jobsUsed << " thread(s), workload built "
              << sweep.cache.workloadBuilds << "x\n";

    if (argc > 3) {
        std::ofstream os(argv[3], std::ios::trunc);
        if (os)
            sim::writeJson(os, sweep);
        os.flush();
        if (!os) {
            std::cerr << "error: could not write " << argv[3] << '\n';
            return 1;
        }
        std::cout << "wrote " << argv[3] << '\n';
    }
    return 0;
}
