/**
 * @file
 * Figure 8: normalised dynamic and static IQ power savings for the
 * NOOP technique, with the nonEmpty (wake-up gating only) bar and the
 * abella comparator, plus §5.2.2's banks-off fractions.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const auto m = bench::loadMatrix(
        argc, argv,
        {sim::Technique::Baseline, sim::Technique::Noop,
         sim::Technique::Abella});
    bench::header(
        "Figure 8: IQ power savings, NOOP scheme",
        "dynamic 47% / static 31% (abella 39%/30%); nonEmpty gating "
        "alone saves less than the full technique; 37% of banks off "
        "(abella 34%)");

    Table t({"benchmark", "noop dyn", "noop stat", "abella dyn",
             "abella stat", "banksOff noop", "banksOff abella"});
    std::vector<double> nd, ns, ad, as, nb, ab, ne;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at(sim::Technique::Baseline, i);
        const auto &noop = m.at(sim::Technique::Noop, i);
        const auto &abella = m.at(sim::Technique::Abella, i);
        const auto cn = sim::comparePower(base, noop);
        const auto ca = sim::comparePower(base, abella);
        nd.push_back(cn.iqDynamicSaving);
        ns.push_back(cn.iqStaticSaving);
        ad.push_back(ca.iqDynamicSaving);
        as.push_back(ca.iqStaticSaving);
        ne.push_back(cn.nonEmptySaving);
        nb.push_back(noop.iqBanksOffFraction());
        ab.push_back(abella.iqBanksOffFraction());
        t.addRow({m.benches[i], Table::pct(cn.iqDynamicSaving),
                  Table::pct(cn.iqStaticSaving),
                  Table::pct(ca.iqDynamicSaving),
                  Table::pct(ca.iqStaticSaving),
                  Table::pct(noop.iqBanksOffFraction()),
                  Table::pct(abella.iqBanksOffFraction())});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(nd)),
              Table::pct(bench::mean(ns)),
              Table::pct(bench::mean(ad)),
              Table::pct(bench::mean(as)),
              Table::pct(bench::mean(nb)),
              Table::pct(bench::mean(ab))});
    t.print(std::cout);
    std::cout << "\nnonEmpty (gating only, no resizing): "
              << Table::pct(bench::mean(ne)) << " dynamic saving\n"
              << "paper: noop 47%/31%, abella 39%/30%, nonEmpty bar "
                 "below noop; banks off 37% vs 34%\n";
    return 0;
}
