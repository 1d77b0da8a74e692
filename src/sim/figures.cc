#include "sim/figures.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "workloads/workloads.hh"

namespace siq::sim
{

namespace
{

constexpr Format pct{true, 1};

constexpr Format
fixed(int precision)
{
    return {false, precision};
}

std::string
show(const Format &f, double v)
{
    return f.percent ? Table::pct(v, f.precision) : Table::fmt(v, f.precision);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
}

double
cut(double base, double tech)
{
    return base > 0.0 ? 1.0 - tech / base : 0.0;
}

using P = const CellPair &;
constexpr auto iqDyn = [](P p) { return p.power.iqDynamicSaving; };
constexpr auto iqStat = [](P p) { return p.power.iqStaticSaving; };
constexpr auto rfDyn = [](P p) { return p.power.rfDynamicSaving; };
constexpr auto rfStat = [](P p) { return p.power.rfStaticSaving; };
constexpr auto loss = [](P p) { return ipcLoss(p.base, p.tech); };
constexpr auto banksOff = [](P p) { return p.tech.iqBanksOffFraction(); };
constexpr auto dispatchCut = [](P p) {
    return cut(p.base.dispatchRate(), p.tech.dispatchRate());
};
constexpr auto occupancyCut = [](P p) {
    return cut(p.base.avgIqOccupancy(), p.tech.avgIqOccupancy());
};
/** Paper §6: the IQ is 22% and the integer RF 11% of processor power. */
constexpr auto overall = [](P p) {
    return 0.22 * p.power.iqDynamicSaving + 0.11 * p.power.rfDynamicSaving;
};

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {"fig6", "Figure 6: IPC loss, NOOP scheme",
         "worst vortex 5.4%, best mcf 0.4%",
         {{"base IPC", "baseline", [](P p) { return p.base.ipc(); },
           fixed(3), {}, &CellAggregate::ipc},
          {"noop IPC", "noop", [](P p) { return p.tech.ipc(); }, fixed(3),
           {}, &CellAggregate::ipc},
          {"noop loss", "noop", loss, pct, 0.022},
          {"abella loss", "abella", loss, pct, 0.031}}},
        {"fig7", "Figure 7: IQ occupancy reduction, NOOP scheme", "",
         {{"base occ", "baseline",
           [](P p) { return p.base.avgIqOccupancy(); }, fixed(1), {}},
          {"noop occ", "noop",
           [](P p) { return p.tech.avgIqOccupancy(); }, fixed(1), {}},
          {"reduction", "noop", occupancyCut, pct, 0.23}}},
        {"fig8", "Figure 8: IQ power savings, NOOP scheme",
         "nonEmpty (wake-up gating alone) saves less than noop",
         {{"noop dyn", "noop", iqDyn, pct, 0.47},
          {"noop stat", "noop", iqStat, pct, 0.31},
          {"abella dyn", "abella", iqDyn, pct, 0.39},
          {"abella stat", "abella", iqStat, pct, 0.30},
          {"banksOff noop", "noop", banksOff, pct, 0.37},
          {"banksOff abella", "abella", banksOff, pct, 0.34},
          {"nonEmpty dyn", "baseline",
           [](P p) { return p.power.nonEmptySaving; }, pct, {}}}},
        {"fig9", "Figure 9: integer RF power savings, NOOP scheme", "",
         {{"noop dyn", "noop", rfDyn, pct, 0.22},
          {"noop stat", "noop", rfStat, pct, 0.21},
          {"abella dyn", "abella", rfDyn, pct, 0.14},
          {"abella stat", "abella", rfStat, pct, 0.17},
          {"dispatch cut noop", "noop", dispatchCut, pct, 0.068},
          {"dispatch cut abella", "abella", dispatchCut, pct, 0.051}}},
        {"fig10", "Figure 10: IPC loss, Extension & Improved",
         "improved below 1.3%; vortex 5.4% -> 2.4% under extension; "
         "bzip2's loss vanishes under improved",
         {{"noop", "noop", loss, pct, 0.022},
          {"extension", "extension", loss, pct, 0.017},
          {"improved", "improved", loss, pct, {}},
          {"abella", "abella", loss, pct, 0.031}}},
        {"fig11", "Figure 11: IQ power savings, Extension & Improved",
         "both slightly below noop; overall: improved's whole-processor "
         "dynamic saving",
         {{"ext dyn", "extension", iqDyn, pct, 0.45},
          {"ext stat", "extension", iqStat, pct, 0.30},
          {"imp dyn", "improved", iqDyn, pct, 0.45},
          {"imp stat", "improved", iqStat, pct, 0.30},
          {"overall dyn", "improved", overall, pct, 0.11}}},
        {"fig12", "Figure 12: RF power savings, Extension & Improved",
         "little change from noop",
         {{"ext dyn", "extension", rfDyn, pct, 0.21},
          {"ext stat", "extension", rfStat, pct, 0.21},
          {"imp dyn", "improved", rfDyn, pct, 0.22},
          {"imp stat", "improved", rfStat, pct, 0.20}}},
        {"speculation", "Speculation: the real front end's mispredicts",
         "extension study over baseline cells; squash cycles and "
         "wrong-path fetch read zero for an oracle export",
         {{"mispred/kI", "baseline",
           [](P p) {
               return 1000.0 * ratio(p.tech.stats.branchMispredicts,
                                     p.tech.stats.committed);
           },
           fixed(2), {}},
          {"squash cycles", "baseline",
           [](P p) {
               return ratio(p.tech.stats.squashCycles, p.tech.stats.cycles);
           },
           pct, {}},
          {"wrong-path fetch/squash", "baseline",
           [](P p) {
               return ratio(p.tech.stats.wrongPathFetched,
                            p.tech.stats.squashes);
           },
           fixed(2), {}}}},
        {"techniques", "Techniques: IQ dynamic saving and IPC loss",
         "extension study; render an oracle and a speculative export "
         "to compare front ends",
         {{"noop dyn", "noop", iqDyn, pct, 0.47},
          {"noop loss", "noop", loss, pct, 0.022},
          {"ext dyn", "extension", iqDyn, pct, 0.45},
          {"ext loss", "extension", loss, pct, 0.017},
          {"imp dyn", "improved", iqDyn, pct, 0.45},
          {"imp loss", "improved", loss, pct, {}},
          {"abella dyn", "abella", iqDyn, pct, 0.39},
          {"abella loss", "abella", loss, pct, 0.031},
          {"folegnani dyn", "folegnani", iqDyn, pct, {}},
          {"folegnani loss", "folegnani", loss, pct, {}}}},
    };
    return table;
}

const Figure &
findFigure(const std::string &id)
{
    std::string ids;
    for (const auto &fig : figures()) {
        if (fig.id == id)
            return fig;
        ids += (ids.empty() ? "" : ", ") + fig.id;
    }
    fatal("unknown figure '", id, "' (figures: ", ids, ")");
}

std::vector<std::vector<double>>
tabulate(const Figure &fig, const SweepResult &result)
{
    const auto &have = result.techniques;
    const std::size_t nb = result.benchmarks.size();
    std::vector<std::vector<double>> rows(
        nb + 1, std::vector<double>(fig.columns.size(), 0.0));
    for (std::size_t c = 0; c < fig.columns.size(); c++) {
        const auto &col = fig.columns[c];
        for (const std::string &name : {std::string("baseline"),
                                        col.technique}) {
            if (std::find(have.begin(), have.end(), name) == have.end())
                fatal("the export has no '", name, "' cells; ", fig.id,
                      " needs them (siqsim spec --techniques must "
                      "include ", name, ")");
        }
        for (std::size_t b = 0; b < nb; b++) {
            const auto &base = result.at("baseline", b);
            const auto &tech = result.at(col.technique, b);
            rows[b][c] = col.metric({base, tech, comparePower(base, tech)});
            rows[nb][c] += rows[b][c];
        }
        rows[nb][c] = nb > 0 ? rows[nb][c] / static_cast<double>(nb) : 0.0;
    }
    return rows;
}

void
renderFigures(std::ostream &os, const SweepResult &result,
              const std::vector<const Figure *> &figs)
{
    std::vector<std::vector<std::vector<double>>> values;
    for (const auto *fig : figs)
        values.push_back(tabulate(*fig, result));

    // the paper's "SPECINT" bar when the suite is exactly its eleven
    // benchmarks, a plain mean otherwise
    std::vector<std::string> labels = result.benchmarks;
    labels.push_back(result.benchmarks == workloads::benchmarkNames()
                         ? "SPECINT"
                         : "MEAN");
    for (std::size_t f = 0; f < figs.size(); f++) {
        const Figure &fig = *figs[f];
        os << (f > 0 ? "\n" : "") << "==== " << fig.title << " ====\n";
        if (!fig.note.empty())
            os << "paper: " << fig.note << "\n";
        os << "\n";

        std::vector<std::string> head = {"benchmark"};
        std::vector<std::string> spreadHead = head;
        for (const auto &c : fig.columns) {
            head.push_back(c.header);
            if (c.spread)
                spreadHead.push_back(c.header);
        }
        Table t(head);
        for (std::size_t r = 0; r < labels.size(); r++) {
            std::vector<std::string> cells = {labels[r]};
            for (std::size_t c = 0; c < fig.columns.size(); c++)
                cells.push_back(show(fig.columns[c].format, values[f][r][c]));
            t.addRow(std::move(cells));
        }
        std::vector<std::string> paper = {"paper"};
        for (const auto &c : fig.columns)
            paper.push_back(c.paper ? show(c.format, *c.paper) : "-");
        t.addRow(std::move(paper));
        t.print(os);

        if (result.seeds <= 1 || spreadHead.size() == 1)
            continue;
        os << "\nreplication (n=" << result.seeds
           << " seeds per cell), mean +/- ci95:\n";
        Table st(spreadHead);
        for (std::size_t b = 0; b < result.benchmarks.size(); b++) {
            std::vector<std::string> cells = {result.benchmarks[b]};
            for (const auto &c : fig.columns) {
                if (!c.spread)
                    continue;
                const auto &m = result.aggAt(c.technique, b).*c.spread;
                cells.push_back(show(c.format, m.mean) + " +/- " +
                                show(c.format, m.ci95));
            }
            st.addRow(std::move(cells));
        }
        st.print(os);
    }
}

} // namespace siq::sim
