/**
 * @file
 * Tests for the figure table (sim/figures.hh): every figure's
 * per-benchmark and mean cells against a reference written out
 * directly from comparePower and the RunResult helpers, over one
 * small speculative sweep, and the renderer's refusals.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "common/logging.hh"
#include "sim/figures.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"

namespace siq
{
namespace
{

using sim::RunResult;

/** Every technique over two families, speculative so the
 *  speculation figure reads nonzero counters. */
const sim::SweepResult &
sweep()
{
    static const sim::SweepResult result = [] {
        sim::SweepSpec spec;
        spec.benchmarks = {"gzip", "server"};
        spec.techniques = sim::techniqueNames();
        spec.base.warmupInsts = 2000;
        spec.base.measureInsts = 10000;
        spec.base.core.specFrontEnd = true;
        return sim::ExperimentRunner().run(spec);
    }();
    return result;
}

const RunResult &
cell(const std::string &technique, std::size_t b)
{
    return sweep().at(technique, b);
}

sim::PowerComparison
power(const std::string &technique, std::size_t b)
{
    return sim::comparePower(cell("baseline", b), cell(technique, b));
}

double
loss(const std::string &technique, std::size_t b)
{
    const double base = cell("baseline", b).ipc();
    return 1.0 - cell(technique, b).ipc() / base;
}

/** Check figure @p id's rows against @p expected (one benchmark's
 *  row) and its mean row against their column means. */
void
expectFigure(const std::string &id,
             const std::function<std::vector<double>(std::size_t)> &expected)
{
    SCOPED_TRACE(id);
    const auto rows = sim::tabulate(sim::findFigure(id), sweep());
    const std::size_t nb = sweep().benchmarks.size();
    ASSERT_EQ(rows.size(), nb + 1);
    std::vector<double> sum;
    for (std::size_t b = 0; b < nb; b++) {
        const auto want = expected(b);
        ASSERT_EQ(rows[b].size(), want.size());
        sum.resize(want.size(), 0.0);
        for (std::size_t c = 0; c < want.size(); c++) {
            EXPECT_NEAR(rows[b][c], want[c], 1e-12)
                << "benchmark " << b << " column " << c;
            sum[c] += want[c];
        }
    }
    ASSERT_EQ(rows[nb].size(), sum.size());
    for (std::size_t c = 0; c < sum.size(); c++)
        EXPECT_NEAR(rows[nb][c], sum[c] / static_cast<double>(nb), 1e-12)
            << "mean column " << c;
}

TEST(Figures, SweepSpeculated)
{
    for (std::size_t b = 0; b < sweep().benchmarks.size(); b++)
        EXPECT_GT(cell("baseline", b).stats.squashes, 0u);
}

TEST(Figures, IpcFiguresMatchRunResults)
{
    expectFigure("fig6", [](std::size_t b) {
        return std::vector<double>{cell("baseline", b).ipc(),
                                   cell("noop", b).ipc(), loss("noop", b),
                                   loss("abella", b)};
    });
    expectFigure("fig7", [](std::size_t b) {
        const double base = cell("baseline", b).avgIqOccupancy();
        const double noop = cell("noop", b).avgIqOccupancy();
        return std::vector<double>{base, noop, 1.0 - noop / base};
    });
    expectFigure("fig10", [](std::size_t b) {
        return std::vector<double>{loss("noop", b), loss("extension", b),
                                   loss("improved", b),
                                   loss("abella", b)};
    });
}

TEST(Figures, PowerFiguresMatchComparePower)
{
    expectFigure("fig8", [](std::size_t b) {
        const auto n = power("noop", b);
        const auto a = power("abella", b);
        return std::vector<double>{
            n.iqDynamicSaving, n.iqStaticSaving, a.iqDynamicSaving,
            a.iqStaticSaving, cell("noop", b).iqBanksOffFraction(),
            cell("abella", b).iqBanksOffFraction(), n.nonEmptySaving};
    });
    expectFigure("fig9", [](std::size_t b) {
        const auto n = power("noop", b);
        const auto a = power("abella", b);
        const double base = cell("baseline", b).dispatchRate();
        return std::vector<double>{
            n.rfDynamicSaving, n.rfStaticSaving, a.rfDynamicSaving,
            a.rfStaticSaving,
            1.0 - cell("noop", b).dispatchRate() / base,
            1.0 - cell("abella", b).dispatchRate() / base};
    });
    expectFigure("fig11", [](std::size_t b) {
        const auto e = power("extension", b);
        const auto i = power("improved", b);
        return std::vector<double>{
            e.iqDynamicSaving, e.iqStaticSaving, i.iqDynamicSaving,
            i.iqStaticSaving,
            0.22 * i.iqDynamicSaving + 0.11 * i.rfDynamicSaving};
    });
    expectFigure("fig12", [](std::size_t b) {
        const auto e = power("extension", b);
        const auto i = power("improved", b);
        return std::vector<double>{e.rfDynamicSaving, e.rfStaticSaving,
                                   i.rfDynamicSaving, i.rfStaticSaving};
    });
}

TEST(Figures, ExtensionStudiesMatchRunResults)
{
    expectFigure("speculation", [](std::size_t b) {
        const auto &s = cell("baseline", b).stats;
        return std::vector<double>{
            1000.0 * static_cast<double>(s.branchMispredicts) /
                static_cast<double>(s.committed),
            static_cast<double>(s.squashCycles) /
                static_cast<double>(s.cycles),
            static_cast<double>(s.wrongPathFetched) /
                static_cast<double>(s.squashes)};
    });
    expectFigure("techniques", [](std::size_t b) {
        std::vector<double> row;
        for (const char *t :
             {"noop", "extension", "improved", "abella", "folegnani"}) {
            row.push_back(power(t, b).iqDynamicSaving);
            row.push_back(loss(t, b));
        }
        return row;
    });
}

/** Paper §6's overall saving is a suite-level sum of means; the
 *  per-benchmark column's mean must equal it. */
TEST(Figures, OverallSavingIsTheMeanOfItsParts)
{
    const auto rows = sim::tabulate(sim::findFigure("fig11"), sweep());
    const std::size_t nb = sweep().benchmarks.size();
    double iq = 0.0;
    double rf = 0.0;
    for (std::size_t b = 0; b < nb; b++) {
        iq += power("improved", b).iqDynamicSaving;
        rf += power("improved", b).rfDynamicSaving;
    }
    const double n = static_cast<double>(nb);
    EXPECT_NEAR(rows.back().back(), 0.22 * iq / n + 0.11 * rf / n, 1e-12);
}

TEST(Figures, EveryFigureRendersTheSuiteAndPaperRows)
{
    std::vector<const sim::Figure *> all;
    for (const auto &fig : sim::figures())
        all.push_back(&fig);
    std::ostringstream os;
    sim::renderFigures(os, sweep(), all);
    const std::string out = os.str();
    for (const auto &fig : sim::figures())
        EXPECT_NE(out.find("==== " + fig.title + " ====\n"),
                  std::string::npos)
            << fig.id;
    std::size_t means = 0;
    std::size_t papers = 0;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
        means += line.rfind("MEAN ", 0) == 0;
        papers += line.rfind("paper ", 0) == 0;
    }
    EXPECT_EQ(means, sim::figures().size());
    EXPECT_EQ(papers, sim::figures().size());
    // the paper row carries the table's values: noop's 47% in fig8
    EXPECT_NE(out.find("47.0%"), std::string::npos);
}

TEST(Figures, UnknownIdIsRefused)
{
    EXPECT_THROW(sim::findFigure("fig5"), FatalError);
    EXPECT_THROW(sim::findFigure(""), FatalError);
    EXPECT_EQ(sim::findFigure("fig8").id, "fig8");
}

TEST(Figures, MissingTechniqueIsRefusedBeforeAnythingPrints)
{
    // baseline and noop only: the first two technique-major rows
    sim::SweepResult partial = sweep();
    ASSERT_EQ(partial.techniques.front(), "baseline");
    ASSERT_EQ(partial.techniques[1], "noop");
    partial.techniques.resize(2);
    partial.cells.resize(2 * partial.benchmarks.size());

    EXPECT_NO_THROW(sim::tabulate(sim::findFigure("fig7"), partial));
    std::ostringstream os;
    try {
        sim::renderFigures(os, partial,
                           {&sim::findFigure("fig7"),
                            &sim::findFigure("fig6")});
        ADD_FAILURE() << "fig6 without abella must be refused";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'abella'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(os.str().empty());
}

} // namespace
} // namespace siq
