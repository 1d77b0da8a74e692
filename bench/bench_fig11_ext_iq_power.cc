/**
 * @file
 * Figure 11: IQ power savings for the Extension and Improved schemes
 * (paper: both ~45% dynamic / ~30% static, slightly below the NOOP
 * scheme's 47%/31%), plus §6's overall-processor derivation: with the
 * IQ at 22% and the integer RF at 11% of processor power, the paper
 * reports ~11% total dynamic savings.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const auto m = bench::loadMatrix(
        argc, argv,
        {sim::Technique::Baseline, sim::Technique::Extension,
         sim::Technique::Improved});
    bench::header("Figure 11: IQ power savings, Extension & Improved",
                  "both ~45% dynamic / 30% static");

    Table t({"benchmark", "ext dyn", "ext stat", "imp dyn",
             "imp stat"});
    std::vector<double> ed, es, id, is, erf, irf;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at(sim::Technique::Baseline, i);
        const auto ce = sim::comparePower(
            base, m.at(sim::Technique::Extension, i));
        const auto ci = sim::comparePower(
            base, m.at(sim::Technique::Improved, i));
        ed.push_back(ce.iqDynamicSaving);
        es.push_back(ce.iqStaticSaving);
        id.push_back(ci.iqDynamicSaving);
        is.push_back(ci.iqStaticSaving);
        erf.push_back(ce.rfDynamicSaving);
        irf.push_back(ci.rfDynamicSaving);
        t.addRow({m.benches[i], Table::pct(ce.iqDynamicSaving),
                  Table::pct(ce.iqStaticSaving),
                  Table::pct(ci.iqDynamicSaving),
                  Table::pct(ci.iqStaticSaving)});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(ed)),
              Table::pct(bench::mean(es)),
              Table::pct(bench::mean(id)),
              Table::pct(bench::mean(is))});
    t.print(std::cout);

    // paper §6: overall processor dynamic savings assuming the IQ is
    // 22% and the integer RF 11% of whole-processor power
    const double overall = 0.22 * bench::mean(id) +
                           0.11 * bench::mean(irf);
    std::cout << "\noverall processor dynamic saving (22% IQ + 11% "
                 "RF shares): "
              << Table::pct(overall) << " (paper: ~11%)\n"
              << "paper: extension/improved ~45% dyn, 30% stat\n";
    return 0;
}
