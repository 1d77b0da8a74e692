/**
 * @file
 * Functional execution traces: run the interpreter once, replay the
 * resulting instruction stream under any number of timing
 * configurations (DESIGN.md §11).
 *
 * The core's execute-at-fetch model makes this exact: every fetched
 * instruction is functionally executed at fetch, so fetch order
 * equals functional order and the whole dynamic stream is a pure
 * function of the program alone — independent of IQ sizing, resize
 * controllers, cache parameters or branch predictor state. A
 * FuncTrace records, per fetched instruction, everything the timing
 * model consumes from the interpreter that the program's static
 * layout does not already say (the PC-table entry, the branch
 * outcome, the effective address and an indirect control's resolved
 * target), in fixed-width 8-byte records held in chunked arena
 * storage. Alongside, it holds the program's predecoded static
 * layout (PcTable), built once at construction, whose entry indices
 * the records hold. A replaying core resolves each record's
 * instruction, successor PC and return-address-stack push through its
 * own program's PcTable (same layout, same indices), and follows that
 * table down the wrong path, so the hints it reads are its own
 * program's even when a sibling produced the trace. The trace is the
 * core's only functional input: Core::fetchStage reads its records,
 * from a trace shared across cells or, for a standalone core, from a
 * private one.
 *
 * Traces grow lazily: a replaying core's cursor requests records by
 * index, and the producer steps the interpreter just far enough to
 * cover the request (in chunk-sized batches). Lazy growth removes the
 * instruction budget from the trace identity — timing configurations
 * with deeper fetch-ahead (bigger ROB / fetch queue) simply extend
 * the shared trace — so the cache key is the program's content hash
 * alone. Production is serialized by an internal mutex; published
 * records are immutable, so concurrent replayers of one trace only
 * contend when they cross a chunk boundary or outrun the frontier.
 */

#ifndef SIQ_CPU_TRACE_HH
#define SIQ_CPU_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "ir/exec.hh"
#include "ir/program.hh"

namespace siq
{

/// @name TraceRecord::word flag bits (below the PcTable index).
/// @{
constexpr std::uint32_t traceFlagTaken = 1 << 0;  ///< StepResult::taken
constexpr std::uint32_t traceFlagHalted = 1 << 1; ///< program ended here
constexpr unsigned traceFlagBits = 2;
/// @}

/**
 * One fetched instruction of the functional stream, resolved through
 * the program's PcTable. `word` holds the instruction's PcTable entry
 * index above the taken/halted flag bits. `aux` is the word-granular
 * effective address of a load or store, the resolved next PC of a
 * Ret or IJump (0 once halted), and 0 otherwise. Everything else is
 * static and comes from the entry: the StaticInst, a call's
 * return-address-stack push PC, and the next PC (recordNextPc()).
 * Trivially default-constructible, so arena chunks are allocated
 * without being zero-filled: the producer writes every field of a
 * record before any window exposes it.
 */
struct TraceRecord
{
    std::uint32_t word;
    std::uint32_t aux;

    std::uint32_t entry() const { return word >> traceFlagBits; }
    bool taken() const { return (word & traceFlagTaken) != 0; }
    bool halted() const { return (word & traceFlagHalted) != 0; }
};

static_assert(sizeof(TraceRecord) == 8,
              "trace records are meant to be compact");
static_assert(std::is_trivially_default_constructible_v<TraceRecord>,
              "chunks are allocated without initialisation");

/**
 * The control-prediction inputs derived from one step of the
 * interpreter: what a replaying core reads as a record's next PC
 * and (for calls) return-address-stack push. Records derive both
 * from their PcTable entry (recordNextPc(), PcEntry::rasPushPc);
 * this walk of the program structure is their test reference.
 */
struct CtrlTargets
{
    std::uint64_t actualNextPc = 0; ///< 0 when the program halted
    std::uint64_t rasPushPc = 0;    ///< Call only: return-site PC
};

CtrlTargets ctrlTargets(const Program &prog, const StepResult &sr);

/**
 * One instruction of a program's predecoded static layout: everything
 * a front end following static structure (not the functional stream)
 * needs to step past it, computed once. Successor PCs resolve through
 * empty blocks like blockStartPc; 0 means there is none (a dead-end
 * fall-through chain, or a field the opcode does not use).
 */
struct PcEntry
{
    const StaticInst *si = nullptr;
    /** The next instruction in the static layout (not-taken path). */
    std::uint32_t seqPc = 0;
    /** Conditional branch or jump: the target block's first PC;
     *  call: the callee's entry. */
    std::uint32_t takenPc = 0;
    /** Call only: the return-site PC a return-address stack pushes
     *  (the caller block's fall-through, as ctrlTargets computes). */
    std::uint32_t rasPushPc = 0;
    /** Synthetic word address for a wrong-path memory op at this PC
     *  (its architectural address does not exist): a splitmix64 hash
     *  of the PC modulo the program's memory size. */
    std::uint32_t wrongPathAddr = 0;
};

static_assert(sizeof(PcEntry) == 24,
              "PC table entries are meant to be compact");

/**
 * PC → PcEntry for one program, sized by instruction count. Entries
 * are dense in PC order; since Program::finalize lays each procedure
 * out contiguously from a 4 KiB page boundary, every page holds one
 * run of consecutive instructions from its start, so a per-page
 * first-entry/count pair resolves a PC with a shift, a mask and two
 * bounds checks. Immutable after construction, which refuses a
 * program whose PCs or memory size do not fit the 32-bit fields of
 * its entries and of trace records.
 */
class PcTable
{
  public:
    explicit PcTable(const Program &prog);

    /** The instruction at @p pc, or nullptr when no instruction sits
     *  there (misaligned, outside the program, or in the gap between
     *  a procedure's end and the next page). */
    const PcEntry *
    find(std::uint64_t pc) const
    {
        // a PC below the first page wraps to a huge page index
        const std::uint64_t page = (pc >> pageShift) - basePage;
        if (page >= pages.size() || (pc & 3) != 0)
            return nullptr;
        const Page &pg = pages[page];
        const std::uint64_t i = (pc & (pageBytes - 1)) >> 2;
        return i < pg.count ? &entries[pg.first + i] : nullptr;
    }

    /** The entry at @p idx, a trace record's entry(). */
    const PcEntry &
    at(std::uint32_t idx) const
    {
        return entries[idx];
    }

    /** The entry index of @p pc, which must be an instruction's PC
     *  (the trace producer's lookup: no bounds checks). */
    std::uint32_t
    indexOf(std::uint64_t pc) const
    {
        const Page &pg = pages[(pc >> pageShift) - basePage];
        return pg.first +
               static_cast<std::uint32_t>((pc & (pageBytes - 1)) >> 2);
    }

    std::size_t size() const { return entries.size(); }

    /** Heap bytes of the table (trace cache accounting). */
    std::uint64_t
    bytes() const
    {
        return entries.capacity() * sizeof(PcEntry) +
               pages.capacity() * sizeof(Page);
    }

  private:
    static constexpr unsigned pageShift = 12;
    static constexpr std::uint64_t pageBytes = 1ull << pageShift;

    struct Page
    {
        std::uint32_t first = 0; ///< index of the page's first entry
        std::uint32_t count = 0; ///< entries at 4-byte steps from it
    };

    std::vector<PcEntry> entries;
    std::vector<Page> pages;
    std::uint64_t basePage = 0;
};

/** The PC of the instruction after @p rec in program order, 0 once
 *  halted — what the front end compares branch-target-buffer
 *  predictions against. @p e is the record's PcTable entry. */
inline std::uint64_t
recordNextPc(const TraceRecord &rec, const PcEntry &e)
{
    if (rec.halted())
        return 0;
    const Opcode op = e.si->op;
    if (op == Opcode::Ret || op == Opcode::IJump)
        return rec.aux;
    return rec.taken() ? e.takenPc : e.seqPc;
}

/**
 * A lazily produced, append-only functional trace of one program.
 * Thread-safe: any number of cursors may replay while one of them
 * extends the frontier. Keeps the program alive — its PC table points
 * at the program's StaticInsts.
 */
class FuncTrace
{
  public:
    /** Records per arena chunk (64 KiB chunks). */
    static constexpr std::uint64_t chunkRecords = 8192;

    explicit FuncTrace(std::shared_ptr<const Program> prog);

    /** A published, immutable span of the trace (half-open record
     *  index range [begin, end) backed by one chunk). */
    struct Window
    {
        const TraceRecord *base = nullptr;
        std::uint64_t begin = 0;
        std::uint64_t end = 0;
    };

    /**
     * The window containing record @p idx, producing up to it first
     * if needed (blocking). The caller must not request records past
     * the halt record — mirroring the interpreter, where step() after
     * halt is a contract violation.
     */
    Window window(std::uint64_t idx);

    /** The program that first built the trace. Every program of its
     *  contentHash runs the same stream, so its cached trace also
     *  serves siblings whose hints differ (tag-annotated copies). */
    const Program &program() const { return *_prog; }

    /** program()'s predecoded layout: the producer's record entry
     *  indices. A replaying core resolves records through its own
     *  program's table, which lays out the same PCs. */
    const PcTable &pcTable() const { return _pcs; }

    /** Bytes the trace holds: its arena chunks so far, plus the
     *  interpreter's memory (memWords × 8) and the PC table, both
     *  allocated at construction (cache accounting). */
    std::uint64_t
    bytes() const
    {
        return _bytes.load(std::memory_order_relaxed);
    }

    /** Wall-clock seconds spent producing records so far. */
    double produceSeconds() const;

    /** Records published so far (monotonic). */
    std::uint64_t producedRecords() const;

  private:
    /** Extend the frontier to cover @p idx, batching to chunk ends;
     *  `mu` must be held. */
    void produceTo(std::uint64_t idx);

    std::shared_ptr<const Program> _prog;
    const PcTable _pcs;
    ExecContext exec;
    std::vector<std::unique_ptr<TraceRecord[]>> chunks;
    std::uint64_t produced = 0;
    double _produceSeconds = 0.0;
    std::atomic<std::uint64_t> _bytes;
    mutable std::mutex mu;
};

/**
 * A replaying core's read cursor: caches the current window so the
 * per-record fast path is a bounds check and an indexed load, only
 * calling back into the (mutex-guarded) trace at chunk boundaries or
 * when outrunning the production frontier.
 */
class TraceCursor
{
  public:
    TraceCursor() = default;
    explicit TraceCursor(FuncTrace *t) : trace(t) {}

    const TraceRecord &
    at(std::uint64_t idx)
    {
        if (idx < win.begin || idx >= win.end)
            win = trace->window(idx);
        return win.base[idx - win.begin];
    }

  private:
    FuncTrace *trace = nullptr;
    FuncTrace::Window win{};
};

} // namespace siq

#endif // SIQ_CPU_TRACE_HH
