/**
 * @file
 * Figure 10: normalised IPC loss for the Extension and Improved
 * schemes, next to NOOP and abella (paper: noop 2.2% -> extension
 * 1.7% -> improved <1.3%; abella 3.1%; vortex drops 5.4% -> 2.4%
 * under Extension; bzip2's loss vanishes under Improved; gcc barely
 * improves).
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const auto m = bench::loadMatrix(
        argc, argv,
        {sim::Technique::Baseline, sim::Technique::Noop,
         sim::Technique::Extension, sim::Technique::Improved,
         sim::Technique::Abella});
    bench::header("Figure 10: IPC loss, Extension & Improved",
                  "noop 2.2% -> extension 1.7% -> improved <1.3%; "
                  "abella 3.1%");

    Table t({"benchmark", "noop", "extension", "improved", "abella"});
    std::vector<double> n, e, im, a;
    for (std::size_t i = 0; i < m.benches.size(); i++) {
        const auto &base = m.at(sim::Technique::Baseline, i);
        const double ln =
            bench::ipcLoss(base, m.at(sim::Technique::Noop, i));
        const double le =
            bench::ipcLoss(base, m.at(sim::Technique::Extension, i));
        const double li =
            bench::ipcLoss(base, m.at(sim::Technique::Improved, i));
        const double la =
            bench::ipcLoss(base, m.at(sim::Technique::Abella, i));
        n.push_back(ln);
        e.push_back(le);
        im.push_back(li);
        a.push_back(la);
        t.addRow({m.benches[i], Table::pct(ln), Table::pct(le),
                  Table::pct(li), Table::pct(la)});
    }
    t.addRow({bench::suiteLabel(m.benches), Table::pct(bench::mean(n)),
              Table::pct(bench::mean(e)),
              Table::pct(bench::mean(im)),
              Table::pct(bench::mean(a))});
    t.print(std::cout);
    std::cout << "\npaper: 2.2% / 1.7% / <1.3% / 3.1%\n";
    return 0;
}
