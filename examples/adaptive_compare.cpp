/**
 * @file
 * Side-by-side comparison of every technique on one benchmark: the
 * paper's whole story in a single table — baseline, the three
 * compiler schemes (NOOP / Extension / Improved) and the two hardware
 * comparators (abella, Folegnani&González). One engine sweep:
 * the workload is synthesized once and shared by every technique.
 *
 * Usage: adaptive_compare [benchmark] [scale]
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const std::string bench = argc > 1 ? argv[1] : "vortex";
    const int scale = argc > 2 ? std::atoi(argv[2]) : 1;

    sim::SweepSpec spec;
    spec.benchmarks = {bench};
    spec.techniques = sim::techniqueNames(); // baseline first
    spec.base.workload.scale = scale;
    spec.base.warmupInsts = 120000;
    spec.base.measureInsts = 400000;

    sim::ExperimentRunner runner;
    const auto sweep = runner.run(spec);
    const auto &base = sweep.at("baseline", 0);

    std::cout << "benchmark '" << bench << "', baseline IPC "
              << Table::fmt(base.ipc(), 3) << " ("
              << sweep.cells.size() << " cells on " << sweep.jobsUsed
              << " thread(s), " << Table::fmt(sweep.wallSeconds, 1)
              << "s)\n\n";

    Table t({"technique", "IPC loss", "IQ occ", "IQ dyn", "IQ stat",
             "RF dyn", "RF stat", "banks off"});
    for (const auto &tech : spec.techniques) {
        if (tech == "baseline")
            continue;
        const auto &r = sweep.at(tech, 0);
        const auto cmp = sim::comparePower(base, r);
        t.addRow({tech, Table::pct(1.0 - r.ipc() / base.ipc()),
                  Table::fmt(r.avgIqOccupancy(), 1),
                  Table::pct(cmp.iqDynamicSaving),
                  Table::pct(cmp.iqStaticSaving),
                  Table::pct(cmp.rfDynamicSaving),
                  Table::pct(cmp.rfStaticSaving),
                  Table::pct(r.iqBanksOffFraction())});
    }
    t.print(std::cout);
    std::cout << "\nbaseline occupancy "
              << Table::fmt(base.avgIqOccupancy(), 1)
              << ", banks off "
              << Table::pct(base.iqBanksOffFraction())
              << "; paper headline: noop 2.2% loss 47%/31% IQ "
                 "savings, improved <1.3% loss 45%/30%\n";
    return 0;
}
