/**
 * @file
 * The experiment engine: a declarative sweep (benchmarks × techniques
 * × config overrides) fanned out over a worker thread pool, with the
 * two expensive, technique-independent artifacts cached and shared
 * read-only across cells:
 *
 *  - generated workload programs, keyed by (benchmark, workload
 *    params) — built once per benchmark no matter how many
 *    techniques run it;
 *  - compiled (hint-annotated) programs, keyed by (workload key,
 *    full compiler configuration) — built once per distinct
 *    annotation and shared by every cell that asks for it;
 *  - functional traces (cpu/trace.hh), keyed by the program's content
 *    hash — the interpreter runs once per distinct program and every
 *    cell replays the shared trace, byte-identical by construction.
 *    Bounded by SIQSIM_TRACE_CACHE_MB (LRU eviction of unreferenced
 *    traces; DESIGN.md §11).
 *
 * Caches are per-runner and persist across run() calls, so an
 * ablation binary that runs several sweeps over the same suite pays
 * workload synthesis once. Both caches build under a shared_future so
 * concurrent first requests block instead of duplicating work; the
 * build/hit counters in SweepCacheStats are therefore exact.
 *
 * Determinism: results are written into a pre-sized matrix slot per
 * cell (technique-major, matching the figure harnesses' historical
 * loop order), so the output order never depends on scheduling, and
 * each cell's simulation is a pure function of its config — a
 * threaded sweep is bit-identical to serial runOne calls (wall-clock
 * metadata aside). See DESIGN.md §6.
 *
 * Replication: SweepSpec::seeds = N runs every cell N times with
 * decorrelated workload seeds (mixSeed over the replica index) and
 * aggregates each metric into mean / stddev / 95% CI (CellAggregate,
 * built on common/stats RunningStats). Replica 0 keeps the configured
 * seed, so the result cells of a replicated sweep are bit-identical
 * to an unreplicated one. See DESIGN.md §7.
 *
 * Distribution: CellHooks lets a caller run any subset of the cell
 * list (shard selection, resume) and observe each cell the moment it
 * finishes (incremental checkpointing) — the substrate of the
 * sharded/checkpointed layer in sim/checkpoint.hh. See DESIGN.md §8.
 */

#ifndef SIQ_SIM_SWEEP_HH
#define SIQ_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fields.hh"
#include "sim/simulator.hh"

namespace siq::sim
{

/** Identity of one sweep cell (CellHooks::onCellDone). */
struct CellKey
{
    std::size_t benchIdx = 0;
    std::size_t techIdx = 0;
    /** Replica index, 0 .. seeds-1 (0 when unreplicated). */
    std::size_t rep = 0;
    std::string benchmark;
    std::string technique;
};

/** A declarative experiment matrix. */
struct SweepSpec
{
    /**
     * Workloads to run: workload spec strings — plain family names
     * ("gzip", workloads::benchmarkNames() order usual) or
     * parameterized ones ("phased:period=60000"), resolved through
     * the family registry (workloads/family.hh). The engine
     * canonicalizes each entry up front (fatal on unknown families,
     * listing the registered ones), and the canonical form is what
     * cells, cache keys and exports carry.
     */
    std::vector<std::string> benchmarks;
    /** Technique names (sim/technique.hh). */
    std::vector<std::string> techniques;
    /** Config every cell runs (tech field is ignored). Compiler
     *  knobs and machine changes split the caches by design. */
    RunConfig base;
    /** Worker threads; 0 defers to the runner's constructor default
     *  (which in turn defaults to hardware concurrency). */
    int jobs = 0;
    /**
     * Replicas per cell. Each cell runs this many times: replica 0
     * with the configured workload seed, replica r > 0 with
     * mixSeed(seed, r, 0). Replica seeds depend only on the replica
     * index, so a given replica sees the same workload program under
     * every technique (paired comparisons, one workload cache entry
     * shared across techniques). 1 = no replication; run() refuses
     * values below 1.
     */
    int seeds = 1;
};

/** Exact cache accounting for one or more run() calls. */
struct SweepCacheStats
{
    std::uint64_t workloadBuilds = 0;
    std::uint64_t workloadHits = 0;
    std::uint64_t compileBuilds = 0;
    std::uint64_t compileHits = 0;
    /// @name Trace cache.
    /// @{
    std::uint64_t traceBuilds = 0;
    std::uint64_t traceHits = 0;
    std::uint64_t traceEvicted = 0;
    /** Trace bytes (chunks, interpreter memory, PC tables) resident
     *  at sampling time (not cumulative). */
    std::uint64_t traceBytes = 0;
    /// @}

    bool operator==(const SweepCacheStats &) const = default;
};

/** Mean / sample stddev / normal-approximation 95% CI half-width of
 *  one metric over a cell's replicas (common/stats RunningStats). */
struct MetricAggregate
{
    double mean = 0.0;
    double stddev = 0.0;
    double ci95 = 0.0;

    bool operator==(const MetricAggregate &) const = default;
};

/**
 * Replication aggregate of one sweep cell: every core/IQ counter plus
 * the derived IPC, each summarized over the cell's n replicas in
 * replica order (so the aggregate is a deterministic function of the
 * replica results, independent of thread scheduling). Compile
 * counters are not aggregated — they are a property of each replica's
 * program, not a noisy measurement.
 */
struct CellAggregate
{
    std::uint64_t n = 0; ///< replicas folded in
#define X(f) MetricAggregate stats_##f;
    SIQ_CORE_STATS_FIELDS(X)
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) MetricAggregate iq_##f;
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    MetricAggregate ipc;

    bool operator==(const CellAggregate &) const = default;
};

/** The completed matrix, in deterministic technique-major order. */
struct SweepResult
{
    /** The spec's benchmark axis, in sweep order. */
    std::vector<std::string> benchmarks;
    /** The spec's technique axis, in sweep order. */
    std::vector<std::string> techniques;
    /** cells[t * benchmarks.size() + b]. Always the replica-0 run
     *  (the configured seed), so a replicated sweep's cells match an
     *  unreplicated sweep bit-for-bit. */
    std::vector<RunResult> cells;
    /** Cache counters accumulated by the runner so far. */
    SweepCacheStats cache;
    int jobsUsed = 1;
    double wallSeconds = 0.0;
    /** Replicas aggregated per cell (1 = no replication). */
    int seeds = 1;
    /** Per-cell aggregates, parallel to cells; empty when seeds == 1. */
    std::vector<CellAggregate> aggregates;

    const RunResult &
    at(std::size_t techIdx, std::size_t benchIdx) const
    {
        return cells[techIdx * benchmarks.size() + benchIdx];
    }

    /** Cell for a technique name; fatal when not in the sweep. */
    const RunResult &at(const std::string &technique,
                        std::size_t benchIdx) const;

    /** Aggregate by matrix position; fatal when the sweep was not
     *  replicated (seeds == 1 keeps aggregates empty). */
    const CellAggregate &aggAt(std::size_t techIdx,
                               std::size_t benchIdx) const;

    /** Aggregate for a technique name; fatal when not in the sweep
     *  or when the sweep was not replicated. */
    const CellAggregate &aggAt(const std::string &technique,
                               std::size_t benchIdx) const;
};

/**
 * Per-cell execution hooks for distributed / checkpointed runs.
 *
 * Both callbacks identify cells by their technique-major index
 * (`techIdx * benchmarks.size() + benchIdx`), the same stable index
 * `SweepResult::cells` uses — the index a shard partition or a
 * checkpoint directory keys on (DESIGN.md §8).
 */
struct CellHooks
{
    /**
     * Cell filter. Return false to skip the cell entirely (its
     * result slot stays default-constructed, onCellDone never fires
     * for it). Null = run every cell. Used for shard selection, for
     * resuming past already checkpointed cells, and for mid-run
     * cancellation.
     *
     * Consulted up to twice per cell: once up front when the cell
     * list is built (in stable index order, so shard partitions are
     * deterministic), and again — possibly from a worker thread —
     * when the cell's first replica is picked up for execution, so a
     * filter that turns false while the sweep is in flight drains
     * the not-yet-started cells. Implementations must therefore be
     * idempotent and thread-safe; a cell whose execution already
     * began completes regardless.
     */
    std::function<bool(std::size_t cellIdx)> shouldRun;
    /**
     * Called exactly once per executed cell, as soon as its last
     * replica finishes — while other cells may still be running, so
     * long sweeps can checkpoint incrementally instead of only after
     * the final join. Runs on a worker thread: implementations must
     * be thread-safe (concurrent calls for different cells); a thrown
     * exception aborts the sweep and rethrows from run().
     * @p rep0 is the replica-0 (configured-seed) result;
     * @p agg is the cell's replica aggregate, or nullptr when the
     * sweep is unreplicated (seeds == 1). Both point at engine-owned
     * storage that stays valid until run() returns. Cells whose
     * replicas threw are never reported.
     */
    std::function<void(std::size_t cellIdx, const CellKey &key,
                       const RunResult &rep0, const CellAggregate *agg)>
        onCellDone;
};

/** Threaded sweep runner with per-runner program caches. */
class ExperimentRunner
{
  public:
    /** @param jobs default worker count for specs with jobs == 0
     *  (0 = hardware concurrency). */
    explicit ExperimentRunner(int jobs = 0);
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /** Run the whole matrix; blocks until every cell finished. */
    SweepResult run(const SweepSpec &spec);

    /**
     * Run the matrix with per-cell hooks: cells rejected by
     * @p hooks.shouldRun are skipped (their result slots stay
     * default-constructed) and every executed cell is reported
     * through @p hooks.onCellDone as it completes. With empty hooks
     * this is exactly run(spec).
     */
    SweepResult run(const SweepSpec &spec, const CellHooks &hooks);

    /** Cache counters accumulated across all run() calls so far. */
    SweepCacheStats cacheStats() const;

    /**
     * Deterministic per-cell seed derivation (splitmix64 over the
     * base seed and the cell coordinates) for specs that want
     * decorrelated workloads per cell without depending on thread
     * scheduling.
     */
    static std::uint64_t mixSeed(std::uint64_t base, std::uint64_t a,
                                 std::uint64_t b);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * True when two results carry identical measurements: same cell
 * identity, bit-identical core stats, IQ events and compile counters.
 * Wall-clock fields (generateSeconds, traceSeconds, compileSeconds,
 * compile.seconds) are excluded — they are the only fields that
 * legitimately differ between a serial and a cached/threaded run of
 * the same cell.
 */
bool identicalMeasurement(const RunResult &a, const RunResult &b);

} // namespace siq::sim

#endif // SIQ_SIM_SWEEP_HH
