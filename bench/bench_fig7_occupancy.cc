/**
 * @file
 * Figure 7: normalised issue queue occupancy reduction for the NOOP
 * technique (paper average: 23%).
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const auto m = bench::loadMatrix(
        argc, argv,
        {sim::Technique::Baseline, sim::Technique::Noop});
    bench::header("Figure 7: IQ occupancy reduction, NOOP scheme",
                  "average 23% fewer entries occupied");

    Table t({"benchmark", "base occ", "noop occ", "reduction"});
    std::vector<double> reductions;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at(sim::Technique::Baseline, i);
        const auto &noop = m.at(sim::Technique::Noop, i);
        const double reduction =
            base.avgIqOccupancy() > 0.0
                ? 1.0 - noop.avgIqOccupancy() / base.avgIqOccupancy()
                : 0.0;
        reductions.push_back(reduction);
        t.addRow({m.benches[i], Table::fmt(base.avgIqOccupancy(), 1),
                  Table::fmt(noop.avgIqOccupancy(), 1),
                  Table::pct(reduction)});
    }
    t.addRow({bench::suiteLabel(m.benches), "-", "-",
              Table::pct(bench::mean(reductions))});
    t.print(std::cout);
    std::cout << "\npaper: average 23% reduction\n";
    return 0;
}
