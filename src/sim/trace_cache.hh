/**
 * @file
 * Bounded, evicting cache of functional traces keyed by program
 * content hash (DESIGN.md §11).
 *
 * Sweep cells whose programs run the same instruction stream (equal
 * Program::contentHash, which leaves out hint payloads) share one
 * FuncTrace: a workload's baseline, abella and folegnani cells (the
 * raw program) and its extension and improved cells (tag-annotated
 * copies with the raw layout). Only a Hint-op insertion (noop) moves
 * PCs and so needs a trace of its own. The interpreter thus runs once
 * per distinct instruction stream instead of once per cell; each
 * replaying core reads its own program's hints (Core::pcs).
 *
 * Handles pin: get() returns a shared_ptr whose deleter notifies the
 * cache, so an entry some worker still holds is never evicted and the
 * byte cap is re-enforced the moment a reference drops (traces grow
 * *after* the miss that inserted them — enforcing only at insertion
 * would let a sweep finish arbitrarily far over the cap). Eviction
 * walks in LRU order over unpinned entries while resident bytes
 * exceed the cap; an over-subscribed cap therefore degrades to
 * trace-per-worker churn, never to a dangling trace.
 *
 * Handle lifetime: every handle co-owns its trace *and* holds the
 * cache's bookkeeping state through a weak_ptr, so handles may
 * outlive the cache. Destroying a cache with outstanding handles
 * (a serve-daemon restart while tenants still simulate) simply orphans
 * those traces — each lives until its last handle drops, and the late
 * deleter finds the state expired instead of touching freed memory.
 *
 * Accounting: an entry counts every byte its trace holds
 * (FuncTrace::bytes()): the record chunks produced so far, and the
 * interpreter memory and PC table a trace allocates at construction —
 * a fresh trace of a 4 MiB-memory program weighs 4 MiB before its
 * first record. Resident bytes are maintained as a running counter —
 * each entry carries the byte count last folded into the total
 * (`bytesSeen`), refreshed whenever that entry is touched (hit,
 * release). Only pinned entries can grow, and every pin ends in a
 * release, so the counter is exact whenever no handle is live and
 * lags only un-released growth otherwise. Debug builds re-verify the
 * invariant after every mutation.
 */

#ifndef SIQ_SIM_TRACE_CACHE_HH
#define SIQ_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cpu/trace.hh"

namespace siq::sim
{

/** Thread-safe LRU trace cache with a byte cap. */
class TraceCache
{
  public:
    /** @p capBytes bounds the resident bytes of the cached traces
     *  (FuncTrace::bytes(); 0 = unbounded). */
    explicit TraceCache(std::uint64_t capBytes);

    /** Warns (does not abort) when handles are still outstanding;
     *  those traces stay alive until their handles drop. */
    ~TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace for @p prog's content, building it on a miss. The
     * returned handle pins the trace against eviction until every
     * copy is destroyed, and keeps the trace (though not the cache
     * slot) alive even if the cache is destroyed first.
     */
    std::shared_ptr<FuncTrace> get(std::shared_ptr<const Program> prog);

    /// @name Accounting (sweep cache statistics).
    /// @{
    std::uint64_t builds() const;
    std::uint64_t hits() const;
    std::uint64_t evicted() const;
    /** Bytes currently resident across all cached traces (chunks,
     *  interpreter memory and PC tables); refreshes pinned-entry
     *  growth, so the report is live. */
    std::uint64_t residentBytes() const;
    /** Entries currently pinned by outstanding handles. */
    std::uint64_t pinnedEntries() const;
    /// @}

  private:
    struct Entry
    {
        std::uint64_t key;
        std::shared_ptr<FuncTrace> trace;
        std::uint64_t refs = 0;      ///< outstanding handles
        std::uint64_t bytesSeen = 0; ///< bytes folded into `resident`
    };

    /**
     * All bookkeeping, held by shared_ptr so handle deleters can
     * observe cache destruction through a weak_ptr instead of
     * dereferencing a dangling `this`.
     */
    struct State
    {
        explicit State(std::uint64_t capBytes) : cap(capBytes) {}

        /** Handle deleter callback: unpin @p key, re-enforce cap. */
        void release(std::uint64_t key);

        /** Fold @p e's current size into the running counter. */
        void refreshBytes(Entry &e);

        /** Evict LRU unpinned entries while over the cap. */
        void enforceCap();

        /** Debug-only: running counter matches the recomputed sum. */
        void checkResident() const;

        const std::uint64_t cap;
        mutable std::mutex mu;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
            index;
        std::uint64_t resident = 0; ///< running Σ bytesSeen
        std::uint64_t _builds = 0;
        std::uint64_t _hits = 0;
        std::uint64_t _evicted = 0;
    };

    std::shared_ptr<State> state;
};

} // namespace siq::sim

#endif // SIQ_SIM_TRACE_CACHE_HH
