/**
 * @file
 * Top-level facade: generate a workload, run the compiler pass for
 * the chosen technique, simulate with warm-up, and collect everything
 * the paper's figures need. This is the API the examples and the
 * benchmark harnesses drive.
 */

#ifndef SIQ_SIM_SIMULATOR_HH
#define SIQ_SIM_SIMULATOR_HH

#include <optional>
#include <string>

#include "adaptive/abella.hh"
#include "adaptive/folegnani.hh"
#include "compiler/pass.hh"
#include "cpu/core.hh"
#include "power/power.hh"
#include "workloads/workloads.hh"

namespace siq::sim
{

/** The techniques compared in the paper's evaluation. */
enum class Technique
{
    Baseline,  ///< fixed 80-entry IQ, no resizing
    Noop,      ///< compiler hints via special NOOPs (§5.2)
    Extension, ///< compiler hints via instruction tags (§5.3)
    Improved,  ///< Extension + inter-procedural FU analysis (§5.3)
    Abella,    ///< hardware adaptive IqRob64 comparator
    Folegnani, ///< hardware adaptive resizer (ablation A4)
};

/** Human-readable technique name (also its table key). */
std::string techniqueName(Technique tech);

struct TechniqueDef; // the table entry type (sim/technique.hh)

/** One experiment's parameters. */
struct RunConfig
{
    Technique tech = Technique::Baseline;
    CoreConfig core;
    workloads::WorkloadParams workload;
    std::uint64_t warmupInsts = 200000;
    std::uint64_t measureInsts = 1000000;
    /** Compiler knobs (only used by hint techniques). */
    int minHint = 4;
    bool elideRedundant = true;
    int unrollFactor = 4;
    AbellaConfig abella;
    FolegnaniConfig folegnani;
};

/** Everything measured in one run. */
struct RunResult
{
    std::string benchmark;
    /** Registry name of the technique that produced this result (for
     *  variants, the variant name, not the built-in family). */
    std::string technique = "baseline";
    Technique tech = Technique::Baseline;
    CoreStats stats;
    IqEventCounts iq;
    compiler::CompileStats compile;
    /// @name Build-time accounting (metadata, not measurements — each
    /// records wall-clock seconds this cell *spent*, so cached
    /// workloads/traces legitimately report 0; excluded from
    /// identicalMeasurement and zeroed by canonicalize()).
    /// @{
    double generateSeconds = 0.0; ///< workload synthesis time
    double traceSeconds = 0.0;    ///< functional trace production time
    double compileSeconds = 0.0;  ///< hint-annotation pass time
    /// @}

    double ipc() const { return stats.ipc(); }

    double
    avgIqOccupancy() const
    {
        return iq.cycles ? static_cast<double>(iq.occupancySum) /
                               static_cast<double>(iq.cycles)
                         : 0.0;
    }

    /** Fraction of IQ bank-cycles powered off. */
    double
    iqBanksOffFraction() const
    {
        return iq.totalBankCycles
                   ? 1.0 - static_cast<double>(iq.poweredBankCycles) /
                               static_cast<double>(iq.totalBankCycles)
                   : 0.0;
    }

    double
    rfIntBanksOffFraction() const
    {
        return stats.rfIntBankCycles
                   ? 1.0 -
                         static_cast<double>(
                             stats.rfIntPoweredBankCycles) /
                             static_cast<double>(stats.rfIntBankCycles)
                   : 0.0;
    }

    /** Average instructions dispatched per cycle. */
    double
    dispatchRate() const
    {
        return stats.cycles
                   ? static_cast<double>(stats.dispatched) /
                         static_cast<double>(stats.cycles)
                   : 0.0;
    }
};

/** Map a technique to its compiler configuration, if it has one
 *  (delegates to the table entry's factory). */
std::optional<compiler::CompilerConfig>
compilerConfigFor(Technique tech, const RunConfig &cfg);

/**
 * Simulate an already-prepared (annotated, finalized) program under a
 * technique's controller. This is the single simulation path shared
 * by serial runOne and the threaded sweep engine; the caller fills in
 * workload/compile metadata on the returned result. When @p trace is
 * non-null the core replays that shared functional trace (@p prog
 * must have the trace's program's contentHash: the same instruction
 * stream, hints may differ), otherwise a private one; every counter
 * is byte-identical either way.
 *
 * Cost model: constructing the Core allocates every arena the tick
 * loop needs (ROB + dense per-entry arrays, completion wheel, fetch
 * ring, scratch vectors — DESIGN.md §9); the warm-up and measurement
 * runs then simulate without heap allocation, so per-replica cost is
 * one construction plus budget-proportional simulation.
 */
RunResult simulateProgram(const Program &prog, const TechniqueDef &def,
                          const RunConfig &cfg,
                          FuncTrace *trace = nullptr);

/** Run one benchmark under the technique cfg.tech. */
RunResult runOne(const std::string &benchmark, const RunConfig &cfg);

/** Run one benchmark under a technique named in sim/technique.hh's
 *  table. Fatal on unknown names. */
RunResult runOne(const std::string &benchmark,
                 const std::string &technique, const RunConfig &cfg);

/** Per-benchmark savings relative to a baseline run (figures 8-12). */
struct PowerComparison
{
    double iqDynamicSaving = 0.0;
    double iqStaticSaving = 0.0;
    double rfDynamicSaving = 0.0;
    double rfStaticSaving = 0.0;
    double nonEmptySaving = 0.0; ///< operand gating alone (baseline)
};

/** Compute the paper's savings numbers for technique vs baseline. */
PowerComparison comparePower(const RunResult &baseline,
                             const RunResult &technique,
                             const power::IqPowerParams &iqParams = {},
                             const power::RfPowerParams &rfParams = {});

} // namespace siq::sim

#endif // SIQ_SIM_SIMULATOR_HH
