/**
 * @file
 * Mispredict-recovery figure (extension beyond the paper): every
 * technique's IQ dynamic-power saving and IPC cost measured twice —
 * under the oracle front end the paper's figures use, and under the
 * real speculative front end (gshare+BTB+RAS, wrong-path fetch,
 * checkpointed squash recovery). The comparison shows how much of
 * each scheme's saving survives wrong-path occupancy and squash
 * churn, alongside the speculation rates themselves.
 *
 * Usage: bench_mispredict_recovery ORACLE.json SPEC.json — the --json
 * exports of the same grid run without and with `siqsim spec
 * --speculative`.
 */

#include "bench/common.hh"

namespace
{

using namespace siq;

/** Total squashes over a matrix: zero exactly when it ran oracle. */
std::uint64_t
squashes(const bench::Matrix &m)
{
    std::uint64_t n = 0;
    for (const auto &cell : m.sweep.cells)
        n += cell.stats.squashes;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<sim::Technique> techs = {
        sim::Technique::Baseline,  sim::Technique::Noop,
        sim::Technique::Extension, sim::Technique::Improved,
        sim::Technique::Abella,    sim::Technique::Folegnani};

    if (argc != 3) {
        bench::usage(argv[0], "ORACLE.json SPEC.json (siqsim run "
                              "--json exports of one grid, without "
                              "and with --speculative)");
    }
    const auto oracle = bench::loadMatrix(argv[1], techs);
    const auto spec = bench::loadMatrix(argv[2], techs);
    if (squashes(oracle) != 0)
        bench::refuse(std::string("'") + argv[1] +
                      "' squashed wrong-path work: it is a "
                      "speculative export, not an oracle one");
    if (squashes(spec) == 0)
        bench::refuse(std::string("'") + argv[2] +
                      "' has no squashes: it is an oracle export; "
                      "make it with siqsim spec --speculative");
    if (oracle.benches != spec.benches)
        bench::refuse("the two exports sweep different workloads");

    bench::header(
        "Mispredict recovery: IQ savings under a real front end",
        "extension study — oracle-front-end savings (Figs 8-12) "
        "re-measured with gshare+BTB+RAS speculation, wrong-path "
        "fetch and squash recovery");
    // the mode labels keep the figure's bytes equal to the output of
    // earlier builds, which printed them before running each sweep
    std::cout << "oracle front end:\n"
              << "speculative front end:\n";
    const std::size_t nb = oracle.benches.size();

    // suite means per technique, each mode against its own baseline
    Table t({"technique", "iq dyn (oracle)", "iq dyn (spec)",
             "ipc loss (oracle)", "ipc loss (spec)"});
    for (std::size_t ti = 1; ti < techs.size(); ti++) {
        std::vector<double> dynO, dynS, lossO, lossS;
        for (std::size_t b = 0; b < nb; b++) {
            const auto &baseO = oracle.at(sim::Technique::Baseline, b);
            const auto &baseS = spec.at(sim::Technique::Baseline, b);
            const auto &techO = oracle.at(techs[ti], b);
            const auto &techS = spec.at(techs[ti], b);
            dynO.push_back(
                sim::comparePower(baseO, techO).iqDynamicSaving);
            dynS.push_back(
                sim::comparePower(baseS, techS).iqDynamicSaving);
            lossO.push_back(bench::ipcLoss(baseO, techO));
            lossS.push_back(bench::ipcLoss(baseS, techS));
        }
        t.addRow({sim::techniqueName(techs[ti]),
                  Table::pct(bench::mean(dynO)),
                  Table::pct(bench::mean(dynS)),
                  Table::pct(bench::mean(lossO)),
                  Table::pct(bench::mean(lossS))});
    }
    t.print(std::cout);

    // the speculation itself, per benchmark (baseline cells: the
    // front end is technique-independent, so one column suffices)
    Table s({"benchmark", "mispred/kI", "squash cycles", "wrong-path "
             "fetch/squash"});
    std::vector<double> rate, frac, depth;
    for (std::size_t b = 0; b < nb; b++) {
        const auto &r = spec.at(sim::Technique::Baseline, b);
        const double committed =
            static_cast<double>(r.stats.committed);
        const double cycles = static_cast<double>(r.stats.cycles);
        const double squashes = static_cast<double>(r.stats.squashes);
        const double kRate =
            committed > 0.0
                ? 1000.0 *
                      static_cast<double>(r.stats.branchMispredicts) /
                      committed
                : 0.0;
        const double cycFrac =
            cycles > 0.0
                ? static_cast<double>(r.stats.squashCycles) / cycles
                : 0.0;
        const double wpPerSquash =
            squashes > 0.0
                ? static_cast<double>(r.stats.wrongPathFetched) /
                      squashes
                : 0.0;
        rate.push_back(kRate);
        frac.push_back(cycFrac);
        depth.push_back(wpPerSquash);
        s.addRow({spec.benches[b], Table::fmt(kRate),
                  Table::pct(cycFrac), Table::fmt(wpPerSquash)});
    }
    s.addRow({bench::suiteLabel(spec.benches),
              Table::fmt(bench::mean(rate)),
              Table::pct(bench::mean(frac)),
              Table::fmt(bench::mean(depth))});
    std::cout << "\n";
    s.print(std::cout);
    std::cout << "\nsquash cycles: fraction of baseline cycles spent "
                 "between arming a\nmispredict and its checkpointed "
                 "recovery (wrong-path fetch live)\n";
    return 0;
}
