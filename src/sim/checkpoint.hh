/**
 * @file
 * The distributed-execution layer on top of the sweep engine: shard a
 * spec's cell list across processes/hosts, checkpoint every finished
 * cell atomically into a run directory, resume a killed run without
 * re-simulating finished cells, and merge shard directories back into
 * the canonical single-file matrix — byte-identical (after
 * canonicalize()) to the same spec run unsharded in one process.
 *
 * The unit of distribution is the *cell* (one benchmark × technique
 * pair with all of its replicas): aggregates are folds over a cell's
 * replicas, so keeping replicas together keeps every checkpoint
 * self-contained. Cells are identified by their stable
 * technique-major index — a pure function of the spec, independent
 * of scheduling, job count or which process runs them. See
 * DESIGN.md §8.
 */

#ifndef SIQ_SIM_CHECKPOINT_HH
#define SIQ_SIM_CHECKPOINT_HH

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/sweep.hh"

namespace siq::sim
{

/**
 * Deterministic 1-of-N selection over stable cell indices: shard
 * @c index of @c count owns cell @c i iff `i % count == index`.
 * Round-robin keeps expensive benchmarks (cells of one benchmark are
 * `count` apart for typical technique counts) spread across shards.
 */
struct ShardPlan
{
    int index = 0;
    int count = 1;

    bool operator==(const ShardPlan &) const = default;
};

/** Parse "i/N" (e.g. "0/4"); fatal on malformed or out-of-range. */
ShardPlan parseShard(const std::string &text);

/** "i/N" — the inverse of parseShard. */
std::string toString(const ShardPlan &plan);

/** Fatal unless 0 <= index < count and count >= 1. */
void validateShard(const ShardPlan &plan);

/** True when @p plan owns the cell with stable index @p cellIdx. */
bool ownsCell(const ShardPlan &plan, std::size_t cellIdx);

/**
 * Prepare @p dir as a checkpoint run directory: create it (and its
 * `cells/` subdirectory) if needed and write `spec.json` atomically.
 * If `spec.json` already exists it must be byte-identical to this
 * spec's serialization — resuming or sharding under a different spec
 * is fatal, because checkpointed cells would silently mix grids.
 * One exception: `jobs` is scheduling, not experiment identity, and
 * is stored as 0, so a run may be resumed with any worker count.
 */
void initRunDir(const std::filesystem::path &dir,
                const SweepSpec &spec);

/**
 * Checkpoint file name for one cell:
 * `cell_<index>_<technique>_<benchmark>.json` with the index
 * zero-padded and the names sanitized for the filesystem. The JSON
 * payload's "index" field is authoritative; the name is for humans
 * and stable ordering in directory listings.
 */
std::string checkpointFileName(const SweepSpec &spec,
                               std::size_t cellIdx);

/**
 * Atomically publish one finished cell into `dir/cells/`: the
 * payload is written to a temporary file and renamed into place, so
 * a reader (or a resume scan) never observes a half-written
 * checkpoint — a kill at any instant leaves either no file or a
 * complete one.
 */
void writeCellCheckpoint(const std::filesystem::path &dir,
                         const SweepSpec &spec,
                         const CellCheckpoint &ckpt);

/** Which cells of @p spec have a complete checkpoint in @p dir
 *  (indexed by stable cell index). */
std::vector<bool> scanCheckpoints(const std::filesystem::path &dir,
                                  const SweepSpec &spec);

/**
 * Atomically publish one invocation's cache counters into the run
 * directory as `cache.json` (unsharded) or `cache_shard_<i>_of_<n>`
 * `.json` — each shard process has its own caches, so per-shard
 * files never collide in a shared directory. Informational only:
 * merge and resume never read them; `siqsim status --cache` does.
 */
void writeCacheStatsFile(const std::filesystem::path &dir,
                         const ShardPlan &shard,
                         const SweepCacheStats &stats);

/** The cache-stats files present in @p dir, as (label, counters)
 *  pairs in sorted filename order; empty when none were written. */
std::vector<std::pair<std::string, SweepCacheStats>>
readCacheStatsFiles(const std::filesystem::path &dir);

/**
 * Fold one or more run directories (all initialized from the same
 * spec — verified byte-exactly) back into the full matrix. Every
 * cell of the spec must be checkpointed in exactly one directory, or
 * in several with identical measurements (wall-clock fields may
 * differ — re-running a pure cell reproduces its measurements, not
 * its timing); missing cells, measurement-conflicting duplicates
 * and cells whose seeds differ from spec.json's are fatal.
 * Scheduling metadata (jobsUsed, wallSeconds, cache) is meaningless
 * for a merged result and left zeroed; cells keep their checkpointed
 * measurements, so canonicalize() + writeJson/writeCsv of a merged
 * result is byte-identical to the unsharded run's canonical export.
 */
SweepResult
mergeCheckpoints(const std::vector<std::filesystem::path> &dirs);

/** What runWithCheckpoints did (and, when finished, the matrix). */
struct ShardRunOutcome
{
    std::size_t cellsTotal = 0;   ///< cells in the whole matrix
    std::size_t cellsOwned = 0;   ///< cells this shard is responsible for
    std::size_t cellsResumed = 0; ///< owned cells already checkpointed
    std::size_t cellsRun = 0;     ///< owned cells simulated this call
    /** True when every cell of the matrix (all shards) is now
     *  checkpointed in the run directory. */
    bool complete = false;
    /** mergeCheckpoints() of the run directory; only valid when
     *  complete. */
    SweepResult merged;
};

/**
 * Run @p spec's cells owned by @p shard through @p runner with
 * per-cell checkpointing into @p dir: already-checkpointed cells are
 * skipped (resume), every newly finished cell is published
 * atomically as it completes (kill-safe), and when the directory
 * ends up covering the whole matrix the merged result is returned.
 * Shards may share one run directory (their cell sets are disjoint)
 * or use separate directories merged later with mergeCheckpoints().
 */
ShardRunOutcome runWithCheckpoints(ExperimentRunner &runner,
                                   const SweepSpec &spec,
                                   const ShardPlan &shard,
                                   const std::filesystem::path &dir);

} // namespace siq::sim

#endif // SIQ_SIM_CHECKPOINT_HH
