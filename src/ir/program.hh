/**
 * @file
 * Program representation: procedures of basic blocks of StaticInsts.
 *
 * Control-flow conventions:
 *  - only the last instruction of a block may transfer control
 *    (conditional branch, jump, indirect jump, call, ret, halt);
 *  - a conditional branch falls through to @c fallthrough when not
 *    taken and goes to its @c target block when taken;
 *  - a block whose last instruction is not a control transfer falls
 *    through to @c fallthrough;
 *  - calls terminate a block (as in the paper, where "the first block
 *    in a DAG is ... a block immediately following a function call");
 *    execution resumes at the caller block's @c fallthrough;
 *  - an IJump selects among @c indirectTargets by register value.
 */

#ifndef SIQ_IR_PROGRAM_HH
#define SIQ_IR_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/static_inst.hh"

namespace siq
{

/** A straight-line run of instructions with single entry and exit. */
struct BasicBlock
{
    int id = -1;
    std::vector<StaticInst> insts;
    int fallthrough = -1; ///< successor when control falls through
    std::vector<int> indirectTargets; ///< IJump jump table (block ids)
    std::vector<int> succs; ///< filled by Program::finalize()
    std::vector<int> preds; ///< filled by Program::finalize()
    std::uint64_t startPc = 0;

    bool empty() const { return insts.empty(); }

    const StaticInst *
    terminator() const
    {
        if (insts.empty())
            return nullptr;
        const StaticInst &last = insts.back();
        return isControl(last.op) || last.traits().isHalt ? &last
                                                          : nullptr;
    }
};

/** A procedure: a list of blocks; block 0 is the entry. */
struct Procedure
{
    int id = -1;
    std::string name;
    std::vector<BasicBlock> blocks;
    bool isLibrary = false; ///< paper §4.4: library calls get max IQ

    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &b : blocks)
            n += b.insts.size();
        return n;
    }
};

/**
 * A program's initial data-memory image: sparse (word address, value)
 * pairs applied in order before execution, so a later pair for the
 * same word wins. Sealed once by ProgramBuilder::build() and immutable
 * from then on: every copy of the Program — each hint-annotated
 * variant, each cached and each standalone copy — shares the one image
 * through a shared_ptr<const MemImage>. It stays sparse because a
 * serve daemon keeps every program it has built alive.
 */
class MemImage
{
  public:
    using Word = std::pair<std::uint64_t, std::int64_t>;

    /** Seal @p words and hash them (once per image). */
    explicit MemImage(std::vector<Word> words);

    /** The one shared empty image: a default Program's. */
    static const std::shared_ptr<const MemImage> &empty();

    const std::vector<Word> &words() const { return _words; }

    /** Word-wise hash of the pair count and every (address, value)
     *  pair in order; Program::finalize() mixes it into contentHash. */
    std::uint64_t hash() const { return _hash; }

  private:
    std::vector<Word> _words;
    std::uint64_t _hash;
};

/** A whole program plus its initial data memory image. */
struct Program
{
    std::string name;
    std::vector<Procedure> procs;
    int entryProc = 0;
    /** Data memory size in 8-byte words; addresses wrap modulo this. */
    std::uint64_t memWords = 1 << 16;
    /** The initial memory image, shared by every copy; never null. */
    std::shared_ptr<const MemImage> memImage = MemImage::empty();

    /**
     * Content fingerprint over every field that affects execution
     * (instructions, block structure, entry point, memory size and the
     * image's hash), mixed a whole 64-bit word at a time by a chained
     * splitmix64 finalizer; filled by finalize(). Two Program objects
     * with equal hashes execute identically instruction for
     * instruction — the key the sweep engine's functional-trace cache
     * shares traces under, across techniques whose annotation was a
     * no-op and across ablation cells that only vary
     * microarchitectural knobs. An in-process cache key only: it is
     * never exported or checkpointed, so its values may change
     * between versions.
     */
    std::uint64_t contentHash = 0;

    /**
     * Assign PCs, build CFG successor/predecessor lists, compute
     * contentHash and validate structural invariants. Must be called
     * after construction and after any instruction insertion (e.g.
     * hint NOOPs).
     */
    void finalize();

    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &p : procs)
            n += p.instCount();
        return n;
    }

  private:
    void validate() const;
};

/**
 * PC of the first instruction executed when control enters
 * (@p proc, @p block), resolving through empty fallthrough-only
 * blocks exactly like the functional interpreter's normalize(); 0
 * when the chain ends without an instruction. Shared by the core's
 * return-address-stack prediction and the functional trace producer
 * so their RAS push values can never drift apart.
 */
std::uint64_t blockStartPc(const Program &prog, int proc, int block);

} // namespace siq

#endif // SIQ_IR_PROGRAM_HH
