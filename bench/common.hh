/**
 * @file
 * Shared renderer support for the figure benches. The benchmark ×
 * technique matrix is run by `siqsim` (spec → run, optionally sharded
 * and merged); each figure binary reads the `--json` export and
 * prints its paper-shaped table:
 *
 *   siqsim spec --warmup 120000 --measure 400000 --out spec.json
 *   siqsim run --spec spec.json --json results.json
 *   bench_fig8_iq_power results.json
 */

#ifndef SIQ_BENCH_COMMON_HH
#define SIQ_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/family.hh"

namespace siq::bench
{

/** Label of a suite-mean row: the paper's "SPECINT" bar when the
 *  suite is exactly the eleven paper benchmarks, "MEAN" otherwise. */
inline std::string
suiteLabel(const std::vector<std::string> &benches)
{
    return benches == workloads::benchmarkNames() ? "SPECINT" : "MEAN";
}

/** One run per benchmark per technique, shared across figures. */
struct Matrix
{
    std::vector<std::string> benches;
    sim::SweepResult sweep;

    const sim::RunResult &
    at(sim::Technique tech, std::size_t benchIdx) const
    {
        return sweep.at(sim::techniqueName(tech), benchIdx);
    }

    /** True when the sweep ran with seeds > 1. */
    bool replicated() const { return !sweep.aggregates.empty(); }

    const sim::CellAggregate &
    aggAt(sim::Technique tech, std::size_t benchIdx) const
    {
        return sweep.aggAt(sim::techniqueName(tech), benchIdx);
    }
};

/** Print @p message and exit non-zero: a renderer has nothing to
 *  show without its input. */
[[noreturn]] inline void
refuse(const std::string &message)
{
    std::cerr << "error: " << message << "\n";
    std::exit(1);
}

/** Print the command line a renderer expects and exit 2. */
[[noreturn]] inline void
usage(const char *program, const std::string &args)
{
    std::cerr << "usage: " << program << " " << args << "\n";
    std::exit(2);
}

/**
 * Read a `siqsim run`/`siqsim merge` --json export. Exits with a
 * message when the file is unreadable or malformed, or when it lacks
 * a technique in @p needed (the message names it).
 */
inline Matrix
loadMatrix(const std::string &path,
           const std::vector<sim::Technique> &needed)
{
    Matrix m;
    try {
        std::ifstream is(path);
        if (!is)
            fatal("cannot read '", path, "'");
        m.sweep = sim::readJson(is);
    } catch (const FatalError &e) {
        refuse(e.what());
    }
    m.benches = m.sweep.benchmarks;
    const auto &have = m.sweep.techniques;
    for (auto tech : needed) {
        const std::string name = sim::techniqueName(tech);
        if (std::find(have.begin(), have.end(), name) == have.end()) {
            refuse("'" + path + "' has no '" + name +
                   "' cells; this figure needs them (siqsim spec "
                   "--techniques must include " + name + ")");
        }
    }
    return m;
}

/** The one-input renderer's entry point: `PROGRAM RESULTS.json`. */
inline Matrix
loadMatrix(int argc, char **argv,
           const std::vector<sim::Technique> &needed)
{
    if (argc != 2) {
        usage(argv[0], "RESULTS.json (the --json export of 'siqsim "
                       "run' or 'siqsim merge')");
    }
    return loadMatrix(argv[1], needed);
}

/** Arithmetic mean over the suite (the paper's SPECINT bar). */
inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size());
}

inline double
ipcLoss(const sim::RunResult &base, const sim::RunResult &tech)
{
    return base.ipc() > 0.0 ? 1.0 - tech.ipc() / base.ipc() : 0.0;
}

inline void
header(const std::string &title, const std::string &paperRef)
{
    std::cout << "==== " << title << " ====\n"
              << "paper reference: " << paperRef << "\n\n";
}

} // namespace siq::bench

#endif // SIQ_BENCH_COMMON_HH
