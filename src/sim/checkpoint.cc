#include "sim/checkpoint.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/logging.hh"
#include "common/result.hh"
#include "workloads/family.hh"

namespace siq::sim
{

namespace fs = std::filesystem;

namespace
{

/** Benchmark/technique names become filename fragments; anything the
 *  filesystem might object to collapses to '_'. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '-' || c == '.';
        out += ok ? c : '_';
    }
    return out;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("checkpoint: cannot read '", path.string(), "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** fsync a directory so a just-renamed entry survives a crash; some
 *  filesystems refuse to sync directories (EINVAL) — warn, don't
 *  fail, since the data itself is already durable. */
void
syncDir(const fs::path &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        warn("checkpoint: cannot open directory '", dir.string(),
             "' for fsync: ", std::strerror(errno));
        return;
    }
    if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        warn("checkpoint: fsync of directory '", dir.string(),
             "' failed: ", std::strerror(errno));
    }
    ::close(fd);
}

/**
 * Write-then-rename with durability: the destination either does not
 * exist or holds the complete content, never a prefix — even across a
 * power failure. The tmp file is fsynced before the rename (otherwise
 * the rename can reach disk before the data, persisting an
 * empty-but-named cell file a resume would then trust), and the
 * parent directory is fsynced after it so the new name itself is
 * durable. Rename atomicity holds within one filesystem, which a run
 * directory is. The tmp name is unique per process and call so
 * concurrent shards sharing a run directory (e.g. both racing to
 * publish spec.json) never tear each other's half-written files.
 */
void
atomicWrite(const fs::path &path, const std::string &content)
{
    static std::atomic<std::uint64_t> serial{0};
    std::ostringstream suffix;
    suffix << ".tmp." << ::getpid() << "."
           << serial.fetch_add(1, std::memory_order_relaxed);
    const fs::path tmp = path.string() + suffix.str();

    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        fatal("checkpoint: cannot create '", tmp.string(), "': ",
              std::strerror(errno));
    }
    std::size_t off = 0;
    while (off < content.size()) {
        const ssize_t n =
            ::write(fd, content.data() + off, content.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            fatal("checkpoint: write to '", tmp.string(), "' failed: ",
                  std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("checkpoint: fsync of '", tmp.string(), "' failed: ",
              std::strerror(err));
    }
    if (::close(fd) != 0) {
        fatal("checkpoint: close of '", tmp.string(), "' failed: ",
              std::strerror(errno));
    }

    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fatal("checkpoint: rename '", tmp.string(), "' -> '",
              path.string(), "' failed: ", ec.message());
    }
    syncDir(path.parent_path());
}

/**
 * Remove `.tmp.<pid>.<serial>` leftovers of crashed shards from
 * @p dir. A live pid (a concurrent shard mid-atomicWrite) keeps its
 * files: kill(pid, 0) distinguishes the two — only ESRCH (no such
 * process) marks the file stale. Unparseable tmp names are left
 * alone.
 */
void
removeStaleTmpFiles(const fs::path &dir)
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        const auto tag = name.find(".tmp.");
        if (tag == std::string::npos)
            continue;
        const std::string rest = name.substr(tag + 5);
        const auto dot = rest.find('.');
        if (dot == std::string::npos || dot == 0)
            continue;
        errno = 0;
        char *end = nullptr;
        const long pid = std::strtol(rest.c_str(), &end, 10);
        if (errno != 0 || end != rest.c_str() + dot || pid <= 0)
            continue;
        if (::kill(static_cast<pid_t>(pid), 0) == 0 ||
            errno != ESRCH) {
            continue; // owner alive (or unknowable): not ours to reap
        }
        std::error_code rmEc;
        if (fs::remove(entry.path(), rmEc)) {
            inform("checkpoint: removed stale tmp file '",
                   entry.path().string(), "' (pid ", pid, " is gone)");
        }
    }
}

fs::path
cellsDir(const fs::path &dir)
{
    return dir / "cells";
}

fs::path
specPath(const fs::path &dir)
{
    return dir / "spec.json";
}

std::size_t
cellCount(const SweepSpec &spec)
{
    return spec.benchmarks.size() * spec.techniques.size();
}

/**
 * The spec string stored in (and compared against) spec.json. The
 * worker-thread count is scheduling, not experiment identity — a run
 * must be resumable with a different --jobs — so it is forced to 0
 * here. Everything else, seeds included, is identity: different
 * budgets or replica counts are different experiments.
 */
std::string
specIdentity(const SweepSpec &spec)
{
    SweepSpec s = spec;
    s.jobs = 0;
    return toJson(s);
}

} // namespace

ShardPlan
parseShard(const std::string &text)
{
    const auto slash = text.find('/');
    std::size_t idxEnd = 0;
    std::size_t cntEnd = 0;
    ShardPlan plan;
    try {
        if (slash == std::string::npos || slash == 0 ||
            slash + 1 >= text.size())
            throw std::invalid_argument(text);
        plan.index = std::stoi(text.substr(0, slash), &idxEnd);
        const std::string cnt = text.substr(slash + 1);
        plan.count = std::stoi(cnt, &cntEnd);
        if (idxEnd != slash || cntEnd != cnt.size())
            throw std::invalid_argument(text);
    } catch (const std::exception &) {
        fatal("shard: expected 'i/N' (e.g. '0/4'), got '", text, "'");
    }
    validateShard(plan);
    return plan;
}

std::string
toString(const ShardPlan &plan)
{
    std::ostringstream os;
    os << plan.index << '/' << plan.count;
    return os.str();
}

void
validateShard(const ShardPlan &plan)
{
    if (plan.count < 1 || plan.index < 0 || plan.index >= plan.count) {
        fatal("shard: index must be in [0, count) with count >= 1, "
              "got ", toString(plan));
    }
}

bool
ownsCell(const ShardPlan &plan, std::size_t cellIdx)
{
    return cellIdx % static_cast<std::size_t>(plan.count) ==
           static_cast<std::size_t>(plan.index);
}

void
initRunDir(const fs::path &dir, const SweepSpec &spec)
{
    if (cellCount(spec) == 0)
        fatal("checkpoint: refusing to init a run dir for an empty "
              "matrix");
    // spec.json must stay readable: readSpecJson refuses seeds < 1
    if (spec.seeds < 1)
        fatal("checkpoint: seeds must be >= 1 (--seeds N), got ",
              spec.seeds);
    std::error_code ec;
    fs::create_directories(cellsDir(dir), ec);
    if (ec) {
        fatal("checkpoint: cannot create '", cellsDir(dir).string(),
              "': ", ec.message());
    }
    const std::string current = specIdentity(spec);
    if (fs::exists(specPath(dir))) {
        const std::string stored = readFile(specPath(dir));
        if (stored != current) {
            fatal("checkpoint: '", specPath(dir).string(),
                  "' does not match this spec — the directory belongs "
                  "to a different experiment; use a fresh directory "
                  "(or delete the old one) instead of mixing grids");
        }
        return;
    }
    atomicWrite(specPath(dir), current);
}

std::string
checkpointFileName(const SweepSpec &spec, std::size_t cellIdx)
{
    const std::size_t nb = spec.benchmarks.size();
    if (nb == 0 || cellIdx >= cellCount(spec))
        fatal("checkpoint: cell index ", cellIdx,
              " outside the spec's matrix");
    char idx[24];
    std::snprintf(idx, sizeof(idx), "%05zu", cellIdx);
    return std::string("cell_") + idx + "_" +
           sanitize(spec.techniques[cellIdx / nb]) + "_" +
           sanitize(spec.benchmarks[cellIdx % nb]) + ".json";
}

void
writeCellCheckpoint(const fs::path &dir, const SweepSpec &spec,
                    const CellCheckpoint &ckpt)
{
    atomicWrite(cellsDir(dir) / checkpointFileName(spec, ckpt.index),
                toJson(ckpt));
}

std::vector<bool>
scanCheckpoints(const fs::path &dir, const SweepSpec &spec)
{
    // reap tmp leftovers of crashed shards first, so they never
    // accumulate and never get mistaken for anything meaningful
    removeStaleTmpFiles(dir);
    if (fs::exists(cellsDir(dir)))
        removeStaleTmpFiles(cellsDir(dir));

    const std::size_t ncells = cellCount(spec);
    std::vector<bool> have(ncells, false);
    for (std::size_t i = 0; i < ncells; i++) {
        const fs::path path = cellsDir(dir) / checkpointFileName(spec, i);
        if (!fs::exists(path))
            continue;
        // trust only files that parse and carry the right index: a
        // truncated or corrupted checkpoint (partial write on a
        // filesystem without rename durability, manual tampering)
        // counts as missing, so resume re-runs the cell and
        // atomically replaces the damaged file
        const auto ckpt = asResult(
            [&] { return cellCheckpointFromJson(readFile(path)); });
        if (!ckpt || ckpt.value().index != i) {
            warn("checkpoint: ignoring damaged cell file '",
                 path.string(), "'",
                 ckpt ? " (index mismatch)" : "",
                 "; the cell will re-run");
            continue;
        }
        have[i] = true;
    }
    return have;
}

void
writeCacheStatsFile(const fs::path &dir, const ShardPlan &shard,
                    const SweepCacheStats &stats)
{
    validateShard(shard);
    std::ostringstream name;
    if (shard.count > 1) {
        name << "cache_shard_" << shard.index << "_of_" << shard.count
             << ".json";
    } else {
        name << "cache.json";
    }
    atomicWrite(dir / name.str(), toJson(stats) + "\n");
}

std::vector<std::pair<std::string, SweepCacheStats>>
readCacheStatsFiles(const fs::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("cache", 0) == 0 && name.size() >= 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
            names.push_back(name);
        }
    }
    std::sort(names.begin(), names.end());

    std::vector<std::pair<std::string, SweepCacheStats>> out;
    for (const std::string &name : names)
        out.emplace_back(name, cacheStatsFromJson(readFile(dir / name)));
    return out;
}

SweepResult
mergeCheckpoints(const std::vector<fs::path> &dirs)
{
    if (dirs.empty())
        fatal("merge: no checkpoint directories given");

    const std::string specText = readFile(specPath(dirs[0]));
    for (std::size_t d = 1; d < dirs.size(); d++) {
        if (readFile(specPath(dirs[d])) != specText) {
            fatal("merge: '", specPath(dirs[d]).string(),
                  "' differs from '", specPath(dirs[0]).string(),
                  "' — shards of one run must share one spec");
        }
    }
    std::istringstream specIs(specText);
    const SweepSpec spec = readSpecJson(specIs);
    const std::size_t ncells = cellCount(spec);

    SweepResult result;
    result.benchmarks = spec.benchmarks;
    result.techniques = spec.techniques;
    result.cells.resize(ncells);
    result.jobsUsed = 0;
    result.wallSeconds = 0.0;

    // duplicate cells (overlapping directories) must agree on every
    // measurement; wall-clock fields may differ between the runs that
    // produced them, so the comparison is semantic, not byte-level.
    // The first directory in argument order wins, making the merge
    // output a deterministic function of its inputs.
    std::vector<fs::path> sources(ncells);
    std::vector<std::size_t> missing;
    std::vector<bool> have(ncells, false);
    if (spec.seeds > 1)
        result.aggregates.resize(ncells);
    for (std::size_t i = 0; i < ncells; i++) {
        const std::string name = checkpointFileName(spec, i);
        for (const auto &dir : dirs) {
            const fs::path path = cellsDir(dir) / name;
            if (!fs::exists(path))
                continue;
            CellCheckpoint ckpt = cellCheckpointFromJson(readFile(path));
            if (ckpt.index != i) {
                fatal("merge: '", path.string(), "' carries index ",
                      ckpt.index, ", expected ", i);
            }
            if (ckpt.seeds != spec.seeds) {
                fatal("merge: '", path.string(), "' ran with seeds=",
                      ckpt.seeds, " but spec.json says seeds=",
                      spec.seeds);
            }
            if (have[i]) {
                const bool same =
                    identicalMeasurement(ckpt.cell, result.cells[i]) &&
                    (ckpt.seeds == 1 ||
                     ckpt.aggregate == result.aggregates[i]);
                if (!same) {
                    fatal("merge: conflicting checkpoints for cell ",
                          i, ": '", sources[i].string(), "' vs '",
                          path.string(), "'");
                }
                continue;
            }
            if (ckpt.seeds > 1)
                result.aggregates[i] = ckpt.aggregate;
            result.cells[i] = std::move(ckpt.cell);
            sources[i] = path;
            have[i] = true;
        }
        if (!have[i])
            missing.push_back(i);
    }
    if (!missing.empty()) {
        std::ostringstream os;
        for (std::size_t k = 0; k < missing.size() && k < 8; k++)
            os << (k ? ", " : "") << missing[k];
        fatal("merge: ", missing.size(), " of ", ncells,
              " cells have no checkpoint (first missing: ", os.str(),
              ") — run the remaining shards before merging");
    }
    result.seeds = spec.seeds;
    return result;
}

ShardRunOutcome
runWithCheckpoints(ExperimentRunner &runner, const SweepSpec &spec_,
                   const ShardPlan &shard, const fs::path &dir)
{
    validateShard(shard);
    // spec.json, checkpoint file names and the engine's cell labels
    // must all use one spelling per workload: pin the canonical form
    // before anything touches the run directory
    SweepSpec spec = spec_;
    for (auto &b : spec.benchmarks)
        b = workloads::canonicalWorkload(b);
    initRunDir(dir, spec);

    ShardRunOutcome outcome;
    outcome.cellsTotal = cellCount(spec);
    const std::vector<bool> have = scanCheckpoints(dir, spec);
    for (std::size_t i = 0; i < have.size(); i++) {
        if (!ownsCell(shard, i))
            continue;
        outcome.cellsOwned++;
        if (have[i])
            outcome.cellsResumed++;
    }

    std::atomic<std::size_t> ran{0};
    CellHooks hooks;
    hooks.shouldRun = [&](std::size_t i) {
        return ownsCell(shard, i) && !have[i];
    };
    hooks.onCellDone = [&](std::size_t i, const CellKey &,
                           const RunResult &rep0,
                           const CellAggregate *agg) {
        CellCheckpoint ckpt;
        ckpt.index = i;
        ckpt.seeds = agg ? static_cast<int>(agg->n) : 1;
        ckpt.cell = rep0;
        if (agg)
            ckpt.aggregate = *agg;
        writeCellCheckpoint(dir, spec, ckpt);
        ran.fetch_add(1, std::memory_order_relaxed);
    };
    runner.run(spec, hooks);
    outcome.cellsRun = ran.load();

    const std::vector<bool> after = scanCheckpoints(dir, spec);
    outcome.complete = true;
    for (bool h : after)
        outcome.complete = outcome.complete && h;
    if (outcome.complete)
        outcome.merged = mergeCheckpoints({dir});
    return outcome;
}

} // namespace siq::sim
