/**
 * @file
 * The figure table: the paper's Figures 6-12 and two extension
 * studies as data, each a list of columns over a `siqsim run` export,
 * and the one renderer that prints any of them (`siqsim figures
 * EXPORT [--figure ID]`), with no code specific to one figure.
 */

#ifndef SIQ_SIM_FIGURES_HH
#define SIQ_SIM_FIGURES_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace siq::sim
{

/** How values print: a percentage of a fraction, or a fixed-point
 *  number, to @p precision decimals. */
struct Format
{
    bool percent = true;
    int precision = 1;
};

/** One benchmark's cells, as a column reads them. */
struct CellPair
{
    const RunResult &base;
    const RunResult &tech;
    PowerComparison power; ///< comparePower(base, tech)
};

struct FigureColumn
{
    std::string header;
    std::string technique; ///< whose cell is CellPair::tech
    double (*metric)(const CellPair &);
    Format format;
    std::optional<double> paper; ///< the paper's suite value, if stated
    /** The technique cell's aggregate whose mean +/- ci95 a replicated
     *  export (seeds > 1) prints per benchmark; null = none. */
    MetricAggregate CellAggregate::*spread = nullptr;
};

struct Figure
{
    std::string id; ///< what `siqsim figures --figure` selects
    std::string title;
    std::string note; ///< the paper's qualitative claims ("" = none)
    std::vector<FigureColumn> columns;
};

/** Every figure, in print order. */
const std::vector<Figure> &figures();

/** The figure with this id; fatal, listing every id, when none. */
const Figure &findFigure(const std::string &id);

/** @p fig's values over @p result: one row per benchmark in export
 *  order, then the per-column arithmetic mean (the suite bar). Fatal,
 *  naming it, when the export lacks a technique the figure reads. */
std::vector<std::vector<double>> tabulate(const Figure &fig,
                                          const SweepResult &result);

/** Print each of @p figs over @p result: the benchmark rows, the
 *  SPECINT/MEAN row, the paper row and any spreads. Every figure
 *  is tabulated before anything prints, so a refusal prints nothing. */
void renderFigures(std::ostream &os, const SweepResult &result,
                   const std::vector<const Figure *> &figs);

} // namespace siq::sim

#endif // SIQ_SIM_FIGURES_HH
