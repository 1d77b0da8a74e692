/**
 * @file
 * Structured (de)serialization for the experiment engine: JSON and
 * CSV emitters for RunResult matrices, the paper's PowerComparison
 * savings, declarative SweepSpec grids, and per-cell checkpoint
 * payloads — so figure data, experiment specs and partial-run state
 * can all leave the process machine-readably. JSON is the one format
 * read back; CSV is write-only, for spreadsheets and plotting.
 *
 * Round-trip guarantee: integer counters are emitted verbatim and
 * doubles with 17 significant digits, so writeJson → readJson and
 * writeSpecJson → readSpecJson reproduce every field bit-exactly, and
 * a CSV row carries the same digits as its JSON cell.
 */

#ifndef SIQ_SIM_REPORT_HH
#define SIQ_SIM_REPORT_HH

#include <iosfwd>
#include <string>

#include "common/json.hh"
#include "common/result.hh"
#include "sim/fields.hh"
#include "sim/sweep.hh"

namespace siq::sim
{

/// @name JSON.
/// @{

/** Serialize one run (a flat JSON object). */
std::string toJson(const RunResult &result);

/** Serialize a whole sweep matrix. Replicated sweeps (seeds > 1)
 *  additionally carry "seeds" and a per-cell "aggregates" array
 *  (n/mean/stddev/ci95 per metric); seeds == 1 output is
 *  byte-identical to the unreplicated schema. */
void writeJson(std::ostream &os, const SweepResult &result);

/** Parse writeJson output back into a SweepResult (cache counters
 *  and wall-clock metadata included). Fatal on malformed input. */
SweepResult readJson(std::istream &is);

/// @}

/// @name CSV.
/// @{

/** One row per cell, every counter a column; header row first.
 *  Replicated sweeps grow an `n` column plus `<metric>_mean`,
 *  `<metric>_stddev` and `<metric>_ci95` columns per metric;
 *  seeds == 1 output keeps the unreplicated column set. */
void writeCsv(std::ostream &os, const SweepResult &result);

/**
 * Per-cell power savings vs the named baseline technique (which must
 * be part of the sweep): the figure 8-12 numbers as CSV.
 */
void writePowerCsv(std::ostream &os, const SweepResult &result,
                   const std::string &baselineTechnique = "baseline",
                   const power::IqPowerParams &iqParams = {},
                   const power::RfPowerParams &rfParams = {});

/// @}

/// @name Sweep specifications.
/// @{

/**
 * Serialize a declarative SweepSpec: the grid axes (benchmarks ×
 * techniques), jobs, seeds, and the full base RunConfig — workload
 * parameters, instruction budgets, compiler knobs, the complete core
 * machine configuration (IQ/LSQ/register files/FUs/branch predictor/
 * memory hierarchy), and both adaptive-comparator configs.
 *
 * Each benchmark-axis entry is emitted as a structured WorkloadSpec
 * object — `{"family": "phased", "params": {"period": 60000}}`, the
 * "params" key elided for parameterless workloads — validated and
 * canonicalized through the family registry (workloads/family.hh,
 * DESIGN.md §10). readSpecJson also accepts plain string entries
 * ("phased:period=60000") in hand-written specs.
 *
 * One field does not serialize, by design: `base.tech` (sweeps
 * ignore it — the technique axis decides what runs). Every other
 * field does, so the JSON describes the sweep completely and any
 * spec runs under `siqsim run` (DESIGN.md §8.1).
 */
void writeSpecJson(std::ostream &os, const SweepSpec &spec);

/** writeSpecJson into a string (the canonical spec identity used to
 *  verify resume/merge compatibility — DESIGN.md §8.2). */
std::string toJson(const SweepSpec &spec);

/** Parse writeSpecJson output. Every serialized field round-trips
 *  bit-exactly. Fatal on malformed input, seeds below 1, or unknown
 *  technique names. */
SweepSpec readSpecJson(std::istream &is);

/** Build a SweepSpec from an already-parsed JSON tree (the serve
 *  daemon embeds specs inside request envelopes). Fatal on schema
 *  violations; see trySpecFromJson for the recoverable form. */
SweepSpec specFromJson(const json::Value &root);

/** Recoverable specFromJson: schema violations become an error
 *  Result instead of unwinding past the caller. */
Result<SweepSpec> trySpecFromJson(const json::Value &root);

/** Recoverable readSpecJson over an in-memory document: malformed
 *  JSON, schema violations, unknown techniques, and bad workload
 *  specs all come back as an error Result. */
Result<SweepSpec> tryReadSpecJson(const std::string &text);

/// @}

/// @name Per-cell checkpoints.
/// @{

/**
 * The payload of one checkpoint file: a finished cell identified by
 * its stable technique-major index, its replica-0 result, and — for
 * replicated sweeps — its replica aggregate (DESIGN.md §8.2).
 */
struct CellCheckpoint
{
    /** Technique-major cell index within the spec's matrix. */
    std::size_t index = 0;
    /** Replicas this cell ran (1 = unreplicated, no aggregate). */
    int seeds = 1;
    RunResult cell;
    /** Only meaningful when seeds > 1. */
    CellAggregate aggregate;
};

/** Serialize one checkpoint payload (a single JSON object). */
std::string toJson(const CellCheckpoint &ckpt);

/** Parse toJson(CellCheckpoint) output; fatal on malformed input. */
CellCheckpoint cellCheckpointFromJson(const std::string &text);

/** Serialize cache counters (the `siqsim run` cache.json payload;
 *  always carries every counter, unlike the sweep export's
 *  schema-frozen cache block). */
std::string toJson(const SweepCacheStats &cache);

/** Parse toJson(SweepCacheStats) output; fatal on malformed input. */
SweepCacheStats cacheStatsFromJson(const std::string &text);

/// @}

/**
 * Zero every scheduling / wall-clock / cache-accounting field of a
 * result (jobsUsed, wallSeconds, cache counters, per-cell
 * generateSeconds, traceSeconds, compileSeconds and compile.seconds),
 * leaving only measurements.
 * Two runs of the same spec — serial or threaded, sharded or not,
 * resumed or not — canonicalize to byte-identical exports; this is
 * the form `siqsim run` and `siqsim merge` emit (DESIGN.md §8.3).
 */
void canonicalize(SweepResult &result);

/** Zero one cell's timing fields (the per-cell piece of the above;
 *  the serve daemon canonicalizes cells before streaming them so
 *  deduped fan-out is byte-identical for every receiver). */
void canonicalize(RunResult &cell);

} // namespace siq::sim

#endif // SIQ_SIM_REPORT_HH
