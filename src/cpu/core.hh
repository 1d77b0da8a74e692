/**
 * @file
 * The out-of-order superscalar core (paper §3 / Table 1).
 *
 * Execute-at-fetch model: every fetched instruction comes off the
 * program's functional trace (FuncTrace, DESIGN.md §11), so values,
 * addresses and branch outcomes are oracle-known; the pipeline then
 * models timing. On a mispredicted branch, the default (oracle)
 * front end stalls fetch until the branch executes and resumes on
 * the correct path the following cycle (wrong-path instructions are
 * not fetched — a standard academic simplification that is identical
 * across all configurations; the penalty still depends on IQ sizing
 * because resolution time is simulated).
 *
 * With CoreConfig::specFrontEnd the front end instead keeps fetching
 * down the predicted path after a mispredict (DESIGN.md §14):
 * wrong-path instructions are functionally inert but rename, occupy
 * fetch/IQ/ROB/LSQ slots, issue and pollute the caches; when the
 * mispredicted branch completes, everything younger is squashed and
 * the checkpointed rename maps, free lists and predictor history are
 * restored. The correct-path instruction stream (the trace cursor)
 * is never advanced by wrong-path fetch, so architectural results
 * are unchanged — only timing and power see the speculation.
 *
 * Per-cycle stage order (reverse pipeline order so same-cycle
 * wakeup+select works as in the paper's figure 1, where producers
 * complete and consumers issue in the same cycle):
 *   commit -> writeback -> select/issue -> dispatch -> fetch.
 *
 * Hot-path structure (DESIGN.md §9): completion events live in a
 * calendar wheel (CompletionWheel) instead of an ordered map, the
 * fetch queue is a fixed ring, per-tick scratch vectors are reusable
 * member arenas, and the state the issue/writeback stages touch per
 * cycle is split into dense ROB-parallel arrays (RobHot + a completed
 * flag) so steady-state ticking allocates nothing and walks dense
 * memory. All architectural counters are byte-identical to the
 * pre-wheel implementation (tests/test_determinism_pin.cc).
 */

#ifndef SIQ_CPU_CORE_HH
#define SIQ_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cpu/bpred.hh"
#include "cpu/iq.hh"
#include "cpu/lsq.hh"
#include "cpu/regfile.hh"
#include "cpu/resize.hh"
#include "cpu/trace.hh"
#include "ir/program.hh"
#include "mem/cache.hh"

namespace siq
{

constexpr int coreNumFuClasses = static_cast<int>(FuClass::NumClasses);

/**
 * Physical-register handle packing: handle = file * regHandleStride
 * + phys (int file 0, fp file 1). Every consumer of the packed form
 * — the writeback file split, the RF-read accounting, and the IQ's
 * wake-up waiter index (sized 2 * regHandleStride) — relies on
 * phys < regHandleStride, which the Core constructor asserts against
 * both register-file configurations.
 */
constexpr int regHandleStride = 256;

/** Full machine configuration, defaults per Table 1. */
struct CoreConfig
{
    int fetchWidth = 8;
    int dispatchWidth = 8;
    int issueWidth = 8;
    int commitWidth = 8;
    int decodeDepth = 3;     ///< fetch-to-dispatch latency in cycles
    int fetchQueueSize = 32;
    int robSize = 128;
    IqConfig iq;
    LsqConfig lsq;
    RegFileConfig intRegs{112, 32, 8};
    RegFileConfig fpRegs{112, 32, 8};
    /** Units per FU class, indexed by FuClass. */
    std::array<int, coreNumFuClasses> fuCounts = {
        1 << 20, 6, 3, 4, 2, 2,
    };
    BpredConfig bpred;
    MemHierarchyConfig mem;
    /**
     * Speculative front end: fetch down predicted paths after a
     * mispredict and squash at resolution instead of stalling fetch.
     * Off by default — the oracle front end's counters are pinned by
     * the determinism digest (tests/test_determinism_pin.cc).
     */
    bool specFrontEnd = false;
};

/** Aggregate core statistics (reset at end of warm-up). */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t hintsApplied = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t frontRedirects = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t dispatchStallRob = 0;
    std::uint64_t dispatchStallIqFull = 0;
    std::uint64_t dispatchStallRange = 0;
    std::uint64_t dispatchStallLimit = 0; ///< adaptive controller
    std::uint64_t dispatchStallRegs = 0;
    std::uint64_t dispatchStallLsq = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadForwards = 0;
    std::uint64_t rfIntReads = 0;
    std::uint64_t rfIntWrites = 0;
    std::uint64_t rfFpReads = 0;
    std::uint64_t rfFpWrites = 0;
    std::uint64_t rfIntLiveSum = 0;
    std::uint64_t rfIntPoweredBankCycles = 0;
    std::uint64_t rfIntBankCycles = 0;
    std::uint64_t rfFpLiveSum = 0;
    std::uint64_t rfFpPoweredBankCycles = 0;
    std::uint64_t rfFpBankCycles = 0;
    /// @name Speculative-front-end counters (zero in oracle mode).
    /// Wrong-path work is kept out of the architectural counters
    /// above (fetched/dispatched/issued/loads/stores count only the
    /// correct path) but does contribute to the power-model activity
    /// counters (RF reads/writes, IQ events, cache accesses) — that
    /// activity is exactly what speculation costs.
    /// @{
    std::uint64_t wrongPathFetched = 0;
    std::uint64_t wrongPathDispatched = 0;
    std::uint64_t wrongPathIssued = 0;
    std::uint64_t squashes = 0;       ///< resolved mispredict flushes
    std::uint64_t squashCycles = 0;   ///< mispredict fetch→resolution
    std::uint64_t squashedInsts = 0;  ///< pipeline entries flushed
    /// @}

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    void
    reset()
    {
        *this = CoreStats{};
    }

    /** Bit-exact comparison (sweep-engine determinism checks). */
    bool operator==(const CoreStats &) const = default;
};

/** One in-flight instruction between fetch and dispatch (a slot of
 *  the fetch ring): what fetch produces. Dispatch renames into
 *  locals and copies the result into RobCold + the dense arrays. */
struct DynInst
{
    const StaticInst *si = nullptr;
    std::uint64_t memAddr = 0; ///< word address for loads/stores
    std::uint64_t decodeReadyCycle = 0;
    bool taken = false;        ///< conditional branch outcome
    bool halted = false;       ///< the program ended here
    bool hintApplied = false;
    bool stallsFetch = false; ///< fetch resumes when this completes
    bool wrongPath = false;   ///< speculative mode: fetched past a
                              ///< mispredict; squashed at resolution
};

/** What the commit stage still needs of a ROB entry after dispatch
 *  (issue/writeback run entirely off RobHot/robCompleted). */
struct RobCold
{
    const StaticInst *si = nullptr;
    std::int32_t oldPdst = -1;
    std::int8_t dstFile = -1;
};

/**
 * Calendar/event wheel for completion events (DESIGN.md §9.1): a
 * power-of-two ring of per-slot vectors replacing the old
 * `std::map<cycle, std::vector<robIdx>>`. schedule() appends to slot
 * `cycle & mask`; popDue() drains the current cycle's slot.
 *
 * Each entry stores its absolute due cycle, so latencies beyond the
 * horizon are not an error: the entry survives intermediate visits of
 * its slot (popDue keeps not-yet-due entries, order preserved) and
 * pops on the correct lap. All events of one cycle land in one slot
 * in scheduling order — exactly the order the map's per-cycle vector
 * had — so the swap is byte-identical for every architectural
 * counter. Slot vectors shrink by resize(), keeping their capacity:
 * steady-state operation never allocates.
 *
 * Squash invalidation (speculative front end): each event carries the
 * generation of its ROB entry at scheduling time and popDue() hands
 * it back with the index. The writeback stage compares it against the
 * entry's current generation — a squash bumps the generation of every
 * flushed entry, so stale events are discarded exactly when due, with
 * no eager removal touching the per-cycle path. Validating at
 * consumption (not inside popDue) also covers a squash that happens
 * mid-writeback: events of the same cycle popped before the squash
 * ran are re-checked against the bumped generations. The oracle front
 * end never bumps a generation, making the mechanism byte-invisible
 * there. nextDue() may report a stale event's cycle; the idle
 * fast-forward then wakes to a cycle where nothing happens, which is
 * safe (it re-proves idleness and jumps again).
 */
class CompletionWheel
{
  public:
    /** Size the ring to cover @p maxLatency within one lap
     *  (bit_ceil(maxLatency + 2) slots, capped at 4096). */
    void init(int maxLatency);

    void
    schedule(std::uint64_t cycle, int robIdx, std::uint32_t gen)
    {
        slots[cycle & mask].push_back({cycle, robIdx, gen});
        inFlight++;
    }

    /** A due event: the ROB index plus the generation it was
     *  scheduled under (the consumer validates against the current
     *  generation before acting). */
    struct Completion
    {
        int robIdx;
        std::uint32_t gen;
    };

    /** Move every event due at @p now into @p out (cleared first),
     *  in scheduling order; later-lap events stay. */
    void popDue(std::uint64_t now, std::vector<Completion> &out);

    int numSlots() const { return static_cast<int>(slots.size()); }

    bool empty() const { return inFlight == 0; }

    /**
     * Earliest due cycle of any in-flight event (all are >= @p now:
     * events are scheduled in the future and popped exactly on their
     * cycle). Returns ~0 when the wheel is empty. Scans forward from
     * @p now's slot and stops at the first event due on this lap;
     * only when none is due within one lap does it scan every slot.
     * Only called by the idle fast-forward, never on the per-cycle
     * path.
     */
    std::uint64_t nextDue(std::uint64_t now) const;

  private:
    struct Event
    {
        std::uint64_t cycle;
        int robIdx;
        std::uint32_t gen;
    };

    std::vector<std::vector<Event>> slots;
    std::uint64_t mask = 0;
    std::uint64_t inFlight = 0;
};

/// @name RobHot flag bits.
/// @{
constexpr std::uint8_t robFlagPipelined = 1 << 0;
constexpr std::uint8_t robFlagLoad = 1 << 1;
constexpr std::uint8_t robFlagStore = 1 << 2;
constexpr std::uint8_t robFlagStallsFetch = 1 << 3;
/** Speculative mode: fetched past a mispredict, never commits. */
constexpr std::uint8_t robFlagWrongPath = 1 << 4;
/// @}

/**
 * Dense per-ROB-entry state for the per-cycle stages (structure of
 * arrays, DESIGN.md §9.2): everything select/issue and writeback
 * need, packed into 32 bytes so they never touch the cold DynInst
 * array. Filled at dispatch; read by issue (FU class, latency,
 * flags, LSQ index, memory address, source handles for RF-read
 * accounting), writeback (destination handle, store/stalls-fetch
 * flags) and commit (memory address, LSQ index).
 */
struct RobHot
{
    std::uint64_t memAddr = 0; ///< word address for loads/stores
    std::int32_t lsqIdx = -1;
    /** Packed destination: handleOf(dstFile, pdst), -1 if none. */
    std::int32_t pdstHandle = -1;
    std::int32_t psrc1 = -1;
    std::int32_t psrc2 = -1;
    std::int16_t latency = 1;
    std::int8_t fu = 0; ///< static_cast<int8_t>(FuClass)
    std::uint8_t flags = 0;
};

/** The cycle-level core. */
class Core
{
  public:
    /**
     * @param prog finalized program (hints already inserted, if any)
     * @param config machine parameters
     * @param controller optional hardware resize heuristic (owned by
     *        the caller; pass nullptr for the baseline and the
     *        compiler-hint configurations)
     * @param trace optional shared functional trace of an identical
     *        program (equal contentHash), possibly already extended by
     *        other cores; it must outlive the core. Without one the
     *        core produces a private trace of @p prog.
     */
    Core(const Program &prog, const CoreConfig &config,
         IqLimitController *controller = nullptr,
         FuncTrace *trace = nullptr);

    /** The core keeps a reference: the program must outlive it. */
    Core(Program &&, const CoreConfig &,
         IqLimitController * = nullptr, FuncTrace * = nullptr) = delete;

    /**
     * Run until the program halts or @p maxInsts more instructions
     * commit. @return instructions committed by this call.
     */
    std::uint64_t run(std::uint64_t maxInsts);

    /** Advance one cycle. */
    void tick();

    bool done() const { return coreHalted; }

    /** Clear all measurement state (end of warm-up). */
    void resetStats();

    const CoreStats &stats() const { return _stats; }
    const IqEventCounts &iqEvents() const { return iq.events; }
    const IssueQueue &issueQueue() const { return iq; }
    const RegFile &intRegFile() const { return intRegs; }
    const RegFile &fpRegFile() const { return fpRegs; }
    MemHierarchy &memory() { return mem; }
    Bpred &bpred() { return _bpred; }
    std::uint64_t cycle() const { return now; }

    /// @name Occupancy accessors (squash-recovery invariant tests).
    /// @{
    int robEntries() const { return robCount; }
    int fetchQueueEntries() const { return fqCount; }
    const Lsq &loadStoreQueue() const { return lsq; }
    /// @}

    /**
     * Deep consistency audit of the rename/free-list/queue state
     * (test support; SIQ_ASSERTs on violation). Verifies that the
     * registers reachable from the rename maps plus the pending
     * oldPdst releases of in-flight ROB entries account for exactly
     * the allocated (non-free) population of each register file, and
     * that ROB/fetch-queue ring counters are self-consistent. Called
     * by the squash-recovery tests after every squash; cheap enough
     * to call per-tick in Debug test runs.
     */
    void auditArchState() const;

  private:
    void commitStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** Why the fetch-queue head cannot dispatch this cycle: the
     *  dispatch stage's checks, in the order it makes them. None
     *  dispatches; Hint and TagHint are actions; NotDecoded waits on
     *  decode; the rest are stalls (Range: paper §3.1 max_new_range,
     *  the two limits: the resize controller). */
    enum class DispatchBlock : std::uint8_t
    {
        None, NotDecoded, Hint, TagHint, Rob, RobLimit, IqFull,
        IqLimit, Range, Lsq, Regs,
    };
    DispatchBlock dispatchBlock(const DynInst &front) const;
    /** The counter a cycle stalled by @p b bumps (nullptr: none). */
    std::uint64_t *stallCounter(DispatchBlock b);
    static bool
    isLimitStall(DispatchBlock b)
    {
        return b == DispatchBlock::RobLimit ||
               b == DispatchBlock::IqLimit;
    }

    /** Issue slots taken this cycle per FU class. */
    using FuUse = std::array<int, coreNumFuClasses>;
    /** Why a ready IQ entry cannot issue this cycle, @p fuUsed units
     *  already taken: its FU class is out of units (pipelined issues
     *  this cycle plus non-pipelined ops still holding theirs), or it
     *  is a load an older store blocks. The select stage and the
     *  idle fast-forward both ask this. */
    enum class IssueBlock : std::uint8_t { None, Fu, Load };
    IssueBlock issueBlock(const RobHot &h, const FuUse &fuUsed);

    /** Fetch (either path) has work and room; the resume and icache
     *  timers gate it on top. wpActive implies fetchBlocked. */
    bool
    fetchWouldRun() const
    {
        return fqCount < cfg.fetchQueueSize &&
               (wpActive ? !wpStalled : !fetchBlocked && !streamHalted);
    }
    /** Access the icache for @p pc on a new line; false on a miss,
     *  which ends the fetch group until icacheReadyCycle. */
    bool icacheHit(std::uint64_t pc);
    /** Claim the fetch-ring tail slot, reset, decoding from now. */
    DynInst &claimFetchSlot();

    /** Per-cycle statistics for @p n cycles of unchanged state. */
    void accountCycles(std::uint64_t n);
    /** Work done so far: a tick that leaves it unchanged did none. */
    std::uint64_t activity() const;

    /**
     * Idle fast-forward (DESIGN.md §12): when no stage can act at the
     * current cycle, jump straight to the earliest cycle at which one
     * can — batching the per-cycle statistics and the one dispatch
     * stall counter the skipped cycles would have accumulated, and
     * ticking the resize controller through them — instead of
     * walking every stage through each dead cycle. It asks the
     * stages' own predicates (issueBlock, dispatchBlock,
     * fetchWouldRun), so every counter stays byte-identical to a
     * tick() loop (FastForward.* in tests/test_core.cc). No-op
     * unless idleness is proven.
     */
    void maybeFastForward();

    /** Train the predictor on fetched instruction @p di (PcTable
     *  entry @p e, resolved successor @p actualNextPc) and detect a
     *  mispredict or front-end redirect. */
    void predictControl(DynInst &di, const PcEntry &e,
                        std::uint64_t actualNextPc);

    /// @name Speculative front end (cfg.specFrontEnd; DESIGN.md §14).
    /// @{
    /** Arm wrong-path fetch at @p startPc (0 gates the front end)
     *  after a mispredicted branch was fetched. */
    void armWrongPath(std::uint64_t startPc);
    /** Fetch stage while wrong-path fetch is active. */
    void wrongPathFetchStage();
    /** Predicted successor of a wrong-path instruction: where fetch
     *  goes next (0: the front end must gate — misfetch, dead end or
     *  a halt) and whether it ends the fetch group (taken control). */
    struct WpNext
    {
        std::uint64_t pc = 0;
        bool taken = false;
    };
    WpNext wrongPathNextPc(const PcEntry &e);
    /** Flush everything younger than the resolved mispredicted
     *  branch and restore the checkpointed front-end state. */
    void squashWrongPath();
    /// @}
    int sourceHandle(int archReg, bool &ready) const;
    /** Units of @p fu still held by non-pipelined ops; the pruned
     *  count is memoized per cycle (prunes once, not per issue
     *  candidate). */
    int fuUnitsBusy(int fu);
    /** Record a non-pipelined issue holding @p fu until @p until. */
    void noteNonPipedIssue(int fu, std::uint64_t until);

    /** Pop the fetch-queue head slot (data stays valid until a later
     *  fetch overwrites it). */
    void
    fqPop()
    {
        fqHead = fqHead + 1 == cfg.fetchQueueSize ? 0 : fqHead + 1;
        fqCount--;
    }

    CoreConfig cfg;
    IqLimitController *ctrl;
    /** ctrl's robLimit()/iqLimit(), re-read after each cycle's
     *  ctrl->tick() and after fast-forward's batch of ticks (ticks
     *  are the only place they may change); INT_MAX without a
     *  controller, so dispatch never stalls on them. */
    int robLimit = std::numeric_limits<int>::max();
    int iqLimit = std::numeric_limits<int>::max();

    /** Re-read the controller's limits after it ticked. */
    void
    readLimits()
    {
        robLimit = ctrl->robLimit();
        iqLimit = ctrl->iqLimit();
    }

    /** The functional stream: a cursor over the caller's shared
     *  trace, or over ownTrace when the caller passed none. */
    std::unique_ptr<FuncTrace> ownTrace;
    TraceCursor stream;
    std::uint64_t streamIdx = 0;
    bool streamHalted = false; ///< the halt record was fetched

    MemHierarchy mem;
    Bpred _bpred;
    IssueQueue iq;
    Lsq lsq;
    RegFile intRegs;
    RegFile fpRegs;

    std::vector<RobCold> rob;
    /** ROB-parallel dense arrays (§9.2). */
    std::vector<RobHot> robHot;
    std::vector<std::uint8_t> robCompleted;
    /** Per-entry generation for wheel-event invalidation at squash
     *  (never bumped in oracle mode). */
    std::vector<std::uint32_t> robGen;
    int robHead = 0;
    int robTail = 0;
    int robCount = 0;

    /** Fetch queue: fixed ring of cfg.fetchQueueSize DynInst slots. */
    std::vector<DynInst> fetchQueue;
    int fqHead = 0;
    int fqTail = 0;
    int fqCount = 0;

    CompletionWheel wheel;

    std::uint64_t now = 0;
    bool fetchBlocked = false;       ///< waiting on a mispredict
    std::uint64_t fetchResumeCycle = 0;
    std::uint64_t icacheReadyCycle = 0;
    std::uint64_t lastFetchLine = ~0ull;
    /** log2 of the L1I line size (a power of two, Cache asserts). */
    int fetchLineShift = 0;
    bool coreHalted = false;

    /** The program's predecoded layout, owned by the trace (shared
     *  by every core replaying it): trace records, wrong-path fetch
     *  and mispredict targets resolve against it. */
    const PcTable *pcs = nullptr;
    /** A mispredicted branch is in flight; fetch follows wpPc. */
    bool wpActive = false;
    /** Front end gated by a misfetch (empty RAS, cold BTB, dead
     *  end); cleared only by the squash. */
    bool wpStalled = false;
    std::uint64_t wpPc = 0;
    /**
     * Checkpoint for squash recovery. Front-end state (predictor
     * history, RAS, arm cycle) is captured when the mispredicted
     * branch is fetched; rename maps, its ROB slot and the IQ tail
     * when it dispatches — wrong-path instructions can only dispatch
     * after it, so the maps are exact at that boundary. At most one
     * checkpoint is ever live: mispredicts are detected at
     * correct-path fetch, which is paused while wrong-path fetch
     * runs (wrong-path branches never resolve, so they cannot nest).
     */
    struct SquashCheckpoint
    {
        std::uint64_t armCycle = 0;
        int branchRobIdx = -1; ///< -1 until the branch dispatches
        std::vector<int> intMap;
        std::vector<int> fpMap;
        BpredSnapshot bpred;
    };
    SquashCheckpoint ckpt;

    // busy-until cycles of units held by in-flight non-pipelined ops,
    // with a per-cycle memoized pruned count
    std::array<std::vector<std::uint64_t>, coreNumFuClasses>
        nonPipedBusy;
    std::array<int, coreNumFuClasses> nonPipedCount{};
    std::array<std::uint64_t, coreNumFuClasses> nonPipedPruned{};

    /** Reusable per-tick scratch arenas (cleared by index reset). */
    std::vector<IssueQueue::Candidate> readyScratch;
    std::vector<CompletionWheel::Completion> wbScratch;

    // per-cycle signals for the resize controller
    ResizeSignals signals;

    CoreStats _stats;
};

} // namespace siq

#endif // SIQ_CPU_CORE_HH
