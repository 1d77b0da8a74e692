/**
 * @file
 * Full statistics dump for one benchmark under one technique —
 * pipeline bottleneck analysis (fetch/dispatch/issue rates, stall
 * breakdown, cache and predictor behaviour, IQ/RF occupancy). The
 * technique is any name `siqsim list` prints; pass
 * "--json" as the last argument to also dump the run machine-readably.
 *
 * Usage: stats_dump [benchmark] [technique] [scale] [--json]
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/technique.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    bool json = false;
    if (argc > 1 && std::string(argv[argc - 1]) == "--json") {
        json = true;
        argc--;
    }
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const std::string techName = argc > 2 ? argv[2] : "baseline";
    const int scale = argc > 3 ? std::atoi(argv[3]) : 1;

    if (sim::findTechnique(techName) == nullptr) {
        std::cerr << "unknown technique '" << techName
                  << "'; registered:";
        for (const auto &name : sim::techniqueNames())
            std::cerr << ' ' << name;
        std::cerr << '\n';
        return 1;
    }

    sim::RunConfig cfg;
    cfg.workload.scale = scale;
    cfg.warmupInsts = 100000;
    cfg.measureInsts = 300000;

    const auto r = sim::runOne(bench, techName, cfg);
    const auto &s = r.stats;
    const double cyc = static_cast<double>(s.cycles);

    std::cout << bench << " / " << r.technique << "\n\n";
    Table t({"metric", "value"});
    auto row = [&](const std::string &k, const std::string &v) {
        t.addRow({k, v});
    };
    row("cycles", std::to_string(s.cycles));
    row("committed", std::to_string(s.committed));
    row("IPC", Table::fmt(s.ipc(), 3));
    row("fetch/cycle", Table::fmt(s.fetched / cyc, 2));
    row("dispatch/cycle", Table::fmt(s.dispatched / cyc, 2));
    row("issue/cycle", Table::fmt(s.issued / cyc, 2));
    row("cond branches", std::to_string(s.condBranches));
    row("mispredicts", std::to_string(s.branchMispredicts));
    row("front redirects", std::to_string(s.frontRedirects));
    row("stall: rob full", std::to_string(s.dispatchStallRob));
    row("stall: iq full", std::to_string(s.dispatchStallIqFull));
    row("stall: range", std::to_string(s.dispatchStallRange));
    row("stall: ctrl limit", std::to_string(s.dispatchStallLimit));
    row("stall: regs", std::to_string(s.dispatchStallRegs));
    row("stall: lsq", std::to_string(s.dispatchStallLsq));
    row("loads / forwards", std::to_string(s.loads) + " / " +
                                std::to_string(s.loadForwards));
    row("stores", std::to_string(s.stores));
    row("avg IQ occupancy", Table::fmt(r.avgIqOccupancy(), 1));
    row("IQ banks off", Table::pct(r.iqBanksOffFraction()));
    row("hints applied", std::to_string(s.hintsApplied));
    row("RF int live avg",
        Table::fmt(s.rfIntLiveSum / cyc, 1));
    row("RF int banks off", Table::pct(r.rfIntBanksOffFraction()));
    t.print(std::cout);

    if (json)
        std::cout << "\n" << sim::toJson(r) << "\n";
    return 0;
}
