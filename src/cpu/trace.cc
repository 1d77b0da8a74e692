#include "cpu/trace.hh"

#include <chrono>
#include <limits>

#include "common/logging.hh"

namespace siq
{

CtrlTargets
ctrlTargets(const Program &prog, const StepResult &sr)
{
    CtrlTargets ct;
    if (!sr.halted) {
        ct.actualNextPc =
            prog.procs[sr.nextProc]
                .blocks[sr.nextBlock]
                .insts[static_cast<std::size_t>(sr.nextInstIdx)]
                .pc;
    }
    if (sr.inst->op == Opcode::Call) {
        const BasicBlock &callBlock =
            prog.procs[sr.proc].blocks[sr.block];
        ct.rasPushPc = blockStartPc(prog, sr.proc,
                                    callBlock.fallthrough);
    }
    return ct;
}

namespace
{

/** splitmix64 finalizer of @p pc modulo the memory size:
 *  deterministic, well-spread synthetic word addresses. */
std::uint64_t
wrongPathAddrOf(std::uint64_t pc, std::uint64_t memWords)
{
    std::uint64_t z = pc + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z % memWords;
}

std::uint32_t
to32(std::uint64_t v)
{
    SIQ_ASSERT(v <= std::numeric_limits<std::uint32_t>::max(),
               "program PCs exceed the PC table's 32-bit fields");
    return static_cast<std::uint32_t>(v);
}

} // namespace

PcTable::PcTable(const Program &prog)
{
    // trace records and wrong-path addresses hold word addresses in
    // 32 bits
    SIQ_ASSERT(prog.memWords <= 1ull << 32, "memory of ", prog.memWords,
               " words exceeds the trace's 32-bit addresses");
    // distinct 4-byte-aligned 32-bit PCs number at most 2^30, so an
    // entry index fits above a record's flag bits
    static_assert(traceFlagBits <= 2);
    entries.reserve(prog.instCount());
    for (std::size_t p = 0; p < prog.procs.size(); p++) {
        const Procedure &proc = prog.procs[p];
        const int pi = static_cast<int>(p);
        for (std::size_t b = 0; b < proc.blocks.size(); b++) {
            const BasicBlock &blk = proc.blocks[b];
            const std::uint64_t fallthroughPc =
                blk.fallthrough < 0
                    ? 0
                    : blockStartPc(prog, pi, blk.fallthrough);
            for (std::size_t i = 0; i < blk.insts.size(); i++) {
                const StaticInst &si = blk.insts[i];
                to32(si.pc); // records and entries store PCs in 32 bits
                PcEntry e;
                e.si = &si;
                e.seqPc = to32(i + 1 < blk.insts.size()
                                   ? blk.insts[i + 1].pc
                                   : fallthroughPc);
                if (si.traits().isBranch || si.op == Opcode::Jump) {
                    e.takenPc = to32(blockStartPc(prog, pi, si.target));
                } else if (si.op == Opcode::Call) {
                    e.takenPc = to32(blockStartPc(prog, si.target, 0));
                    e.rasPushPc = to32(fallthroughPc);
                }
                e.wrongPathAddr = static_cast<std::uint32_t>(
                    wrongPathAddrOf(si.pc, prog.memWords));

                const std::uint64_t page = si.pc >> pageShift;
                if (entries.empty()) {
                    basePage = page;
                    pages.push_back({0, 0});
                }
                SIQ_ASSERT(page >= basePage + pages.size() - 1,
                           "PCs must ascend in layout order");
                while (basePage + pages.size() - 1 < page) {
                    pages.push_back(
                        {static_cast<std::uint32_t>(entries.size()), 0});
                }
                Page &pg = pages.back();
                SIQ_ASSERT(si.pc == (page << pageShift) + 4 * pg.count,
                           "PC ", si.pc, " breaks the page layout");
                pg.count++;
                entries.push_back(e);
            }
        }
    }
}

FuncTrace::FuncTrace(std::shared_ptr<const Program> prog)
    : _prog(std::move(prog)), _pcs(*_prog), exec(*_prog),
      _bytes(_prog->memWords * sizeof(std::int64_t) + _pcs.bytes())
{
}

FuncTrace::Window
FuncTrace::window(std::uint64_t idx)
{
    std::lock_guard lock(mu);
    if (idx >= produced)
        produceTo(idx);
    Window w;
    w.begin = (idx / chunkRecords) * chunkRecords;
    w.end = std::min(w.begin + chunkRecords, produced);
    w.base = chunks[idx / chunkRecords].get();
    return w;
}

void
FuncTrace::produceTo(std::uint64_t idx)
{
    SIQ_ASSERT(!exec.halted(),
               "trace record ", idx, " requested past the halt record "
               "(", produced, " produced)");
    const auto t0 = std::chrono::steady_clock::now();
    // batch to the end of the target chunk: the request amortizes
    // the lock and the interpreter's cache warm-up over ~chunkRecords
    // steps instead of paying them per fetch group
    const std::uint64_t target =
        (idx / chunkRecords + 1) * chunkRecords;
    while (produced < target && !exec.halted()) {
        if (produced % chunkRecords == 0) {
            chunks.push_back(
                std::make_unique_for_overwrite<TraceRecord[]>(
                    chunkRecords));
            _bytes.fetch_add(chunkRecords * sizeof(TraceRecord),
                             std::memory_order_relaxed);
        }
        const StepResult sr = exec.step();
        TraceRecord &rec =
            chunks[produced / chunkRecords][produced % chunkRecords];
        rec.word = (_pcs.indexOf(sr.inst->pc) << traceFlagBits) |
                   (sr.taken ? traceFlagTaken : 0) |
                   (sr.halted ? traceFlagHalted : 0);
        // the PC table's construction checked that PCs and word
        // addresses fit 32 bits
        const Opcode op = sr.inst->op;
        if (op == Opcode::Ret || op == Opcode::IJump)
            rec.aux = static_cast<std::uint32_t>(exec.nextPc());
        else
            rec.aux = static_cast<std::uint32_t>(sr.memAddr);
        produced++;
    }
    SIQ_ASSERT(produced > idx,
               "trace record ", idx, " requested past the halt record "
               "(", produced, " produced)");
    _produceSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

double
FuncTrace::produceSeconds() const
{
    std::lock_guard lock(mu);
    return _produceSeconds;
}

std::uint64_t
FuncTrace::producedRecords() const
{
    std::lock_guard lock(mu);
    return produced;
}

} // namespace siq
