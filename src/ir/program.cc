#include "ir/program.hh"

#include <algorithm>

#include "common/logging.hh"

namespace siq
{

namespace
{

/**
 * Chained splitmix64 finalizer over whole 64-bit words. Each step is a
 * bijection of (state, word), so two sequences of equal length that
 * differ in exactly one word always hash differently.
 */
class WordHasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h = z ^ (z >> 31);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0x6a09e667f3bcc909ull;
};

/** MemImage's hash: the pair count, then every address and value in
 *  order, in two independent chains (addresses, values) that halve
 *  the latency of hashing the largest images. */
std::uint64_t
hashImage(const std::vector<MemImage::Word> &words)
{
    WordHasher addrs;
    WordHasher values;
    addrs.mix(words.size());
    for (const auto &[addr, value] : words) {
        addrs.mix(addr);
        values.mix(static_cast<std::uint64_t>(value));
    }
    addrs.mix(values.value());
    return addrs.value();
}

std::uint64_t
hashContent(const Program &prog)
{
    WordHasher f;
    f.mix(static_cast<std::uint64_t>(prog.entryProc));
    f.mix(prog.memWords);
    f.mix(prog.memImage->hash());
    f.mix(prog.procs.size());
    for (const auto &proc : prog.procs) {
        f.mix(proc.blocks.size());
        for (const auto &block : proc.blocks) {
            f.mix(static_cast<std::uint64_t>(block.fallthrough));
            f.mix(block.indirectTargets.size());
            for (const int t : block.indirectTargets)
                f.mix(static_cast<std::uint64_t>(t));
            f.mix(block.insts.size());
            for (const StaticInst &si : block.insts) {
                f.mix(static_cast<std::uint64_t>(si.op));
                f.mix(static_cast<std::uint64_t>(
                          static_cast<std::uint16_t>(si.dst)) |
                      static_cast<std::uint64_t>(
                          static_cast<std::uint16_t>(si.src1))
                          << 16 |
                      static_cast<std::uint64_t>(
                          static_cast<std::uint16_t>(si.src2))
                          << 32 |
                      static_cast<std::uint64_t>(si.hintValue) << 48);
                f.mix(static_cast<std::uint64_t>(si.imm));
                f.mix(static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(si.target)) |
                      static_cast<std::uint64_t>(si.tagHint) << 32);
            }
        }
    }
    return f.value();
}

} // namespace

MemImage::MemImage(std::vector<Word> words)
    : _words(std::move(words)), _hash(hashImage(_words))
{
}

const std::shared_ptr<const MemImage> &
MemImage::empty()
{
    static const auto image =
        std::make_shared<const MemImage>(std::vector<Word>{});
    return image;
}

std::uint64_t
blockStartPc(const Program &prog, int proc, int block)
{
    // resolve through empty fallthrough blocks exactly like the
    // functional normalize() so RAS predictions compare equal
    int b = block;
    while (true) {
        const BasicBlock &blk = prog.procs[proc].blocks[b];
        if (!blk.insts.empty())
            return blk.insts.front().pc;
        if (blk.fallthrough < 0)
            return 0;
        b = blk.fallthrough;
    }
}

void
Program::finalize()
{
    std::uint64_t pc = 0x1000;
    for (auto &proc : procs) {
        for (auto &block : proc.blocks) {
            block.startPc = pc;
            for (auto &inst : block.insts) {
                inst.pc = pc;
                pc += 4;
            }
            block.succs.clear();
            block.preds.clear();
        }
        // page-align procedures so PCs stay distinctive
        pc = (pc + 0xFFF) & ~0xFFFull;
    }

    contentHash = hashContent(*this);

    for (auto &proc : procs) {
        const int nblocks = static_cast<int>(proc.blocks.size());
        auto addEdge = [&](int from, int to) {
            SIQ_ASSERT(to >= 0 && to < nblocks,
                       "bad CFG edge target ", to, " in proc ",
                       proc.name);
            auto &s = proc.blocks[from].succs;
            if (std::find(s.begin(), s.end(), to) == s.end())
                s.push_back(to);
            auto &p = proc.blocks[to].preds;
            if (std::find(p.begin(), p.end(), from) == p.end())
                p.push_back(from);
        };
        for (auto &block : proc.blocks) {
            const StaticInst *term = block.terminator();
            if (term == nullptr) {
                if (block.fallthrough >= 0)
                    addEdge(block.id, block.fallthrough);
                continue;
            }
            const auto &t = term->traits();
            if (t.isBranch) {
                addEdge(block.id, term->target);
                SIQ_ASSERT(block.fallthrough >= 0,
                           "branch block needs fallthrough");
                addEdge(block.id, block.fallthrough);
            } else if (term->op == Opcode::Jump) {
                addEdge(block.id, term->target);
            } else if (term->op == Opcode::IJump) {
                SIQ_ASSERT(!block.indirectTargets.empty(),
                           "IJump without a target table");
                for (int tgt : block.indirectTargets)
                    addEdge(block.id, tgt);
            } else if (t.isCall) {
                // the call returns to the fallthrough block; model the
                // intra-procedural edge so DAG analysis sees it
                SIQ_ASSERT(block.fallthrough >= 0,
                           "call block needs fallthrough");
                addEdge(block.id, block.fallthrough);
            }
            // Ret and Halt have no intra-procedural successor.
        }
    }

    validate();
}

void
Program::validate() const
{
    SIQ_ASSERT(!procs.empty(), "program has no procedures");
    SIQ_ASSERT(entryProc >= 0 &&
               entryProc < static_cast<int>(procs.size()),
               "bad entry procedure");
    SIQ_ASSERT(memWords > 0, "zero-size memory");
    for (const auto &proc : procs) {
        SIQ_ASSERT(!proc.blocks.empty(),
                   "procedure ", proc.name, " has no blocks");
        for (std::size_t i = 0; i < proc.blocks.size(); i++) {
            const auto &block = proc.blocks[i];
            SIQ_ASSERT(block.id == static_cast<int>(i),
                       "block id mismatch in ", proc.name);
            for (std::size_t k = 0; k + 1 < block.insts.size(); k++) {
                SIQ_ASSERT(!isControl(block.insts[k].op) &&
                           !block.insts[k].traits().isHalt,
                           "control transfer mid-block in ",
                           proc.name, " block ", block.id);
            }
            const StaticInst *term = block.terminator();
            if (term && term->traits().isCall) {
                SIQ_ASSERT(term->target >= 0 && term->target <
                           static_cast<int>(procs.size()),
                           "call to unknown procedure");
            }
        }
    }
}

} // namespace siq
