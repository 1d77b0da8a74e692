/**
 * @file
 * Figure 12: integer register file power savings for the Extension
 * and Improved schemes (paper: extension 21%/21%, improved 22%/20% —
 * little change from the NOOP scheme).
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
    bench::header("Figure 12: RF power savings, Extension & Improved",
                  "extension 21% dyn / 21% stat; improved 22% / 20%");

    Table t({"benchmark", "ext dyn", "ext stat", "imp dyn",
             "imp stat"});
    std::vector<double> ed, es, id, is;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at(sim::Technique::Baseline, i);
        const auto ce = sim::comparePower(
            base, m.at(sim::Technique::Extension, i));
        const auto ci = sim::comparePower(
            base, m.at(sim::Technique::Improved, i));
        ed.push_back(ce.rfDynamicSaving);
        es.push_back(ce.rfStaticSaving);
        id.push_back(ci.rfDynamicSaving);
        is.push_back(ci.rfStaticSaving);
        t.addRow({m.benches[i], Table::pct(ce.rfDynamicSaving),
                  Table::pct(ce.rfStaticSaving),
                  Table::pct(ci.rfDynamicSaving),
                  Table::pct(ci.rfStaticSaving)});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(ed)),
              Table::pct(bench::mean(es)),
              Table::pct(bench::mean(id)),
              Table::pct(bench::mean(is))});
    t.print(std::cout);
    std::cout << "\npaper: extension 21%/21%, improved 22%/20%\n";
    return 0;
}
