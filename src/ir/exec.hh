/**
 * @file
 * Functional interpreter for siqsim programs.
 *
 * The cycle-level core uses an execute-at-fetch model: every fetched
 * instruction comes off a functional trace (cpu/trace.hh) this
 * interpreter produced, so values, memory addresses and branch
 * outcomes are known at fetch and identical under every timing
 * configuration. Tests assert that property.
 */

#ifndef SIQ_IR_EXEC_HH
#define SIQ_IR_EXEC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace siq
{

/** Everything the timing model needs to know about one executed inst. */
struct StepResult
{
    const StaticInst *inst = nullptr;
    int proc = -1;
    int block = -1;
    int instIdx = -1;
    /** Location of the next instruction (after control resolution). */
    int nextProc = -1;
    int nextBlock = -1;
    int nextInstIdx = -1;
    bool taken = false;        ///< conditional branch outcome
    std::uint64_t memAddr = 0; ///< word address for loads/stores
    bool halted = false;       ///< program finished at this step
};

/** Architectural state plus an instruction-at-a-time interpreter. */
class ExecContext
{
  public:
    explicit ExecContext(const Program &prog);

    /** The context keeps a reference: the program must outlive it. */
    explicit ExecContext(Program &&) = delete;

    /** Execute the next instruction in program order. */
    StepResult step();

    bool halted() const { return _halted; }
    std::uint64_t instsExecuted() const { return _instsExecuted; }

    /** PC of the instruction the next step() executes (the position
     *  normalize() already resolved through empty blocks); 0 once
     *  halted. */
    std::uint64_t
    nextPc() const
    {
        return _halted
                   ? 0
                   : curBlk->insts[static_cast<std::size_t>(instIdx)].pc;
    }

    /// @name Observation hooks for tests.
    /// @{
    std::int64_t intReg(int r) const { return iregs[r]; }

    /** Read an FP register by unified or class-local index. */
    double
    fpReg(int r) const
    {
        return fregs[static_cast<std::size_t>(
            r >= fpRegBase ? r - fpRegBase : r)];
    }
    std::int64_t readMem(std::uint64_t wordAddr) const;
    /** Current position (proc, block). */
    int curProc() const { return proc; }
    int curBlock() const { return block; }
    std::uint64_t callDepth() const { return stack.size(); }
    /// @}

  private:
    struct Frame
    {
        int proc;
        int block;
        int instIdx;
    };

    std::uint64_t wrap(std::int64_t wordAddr) const;
    void advance(StepResult &res);
    /** Skip empty blocks (fallthrough-only joins) and detect halt. */
    void normalize();

    const Program &prog;
    const std::uint64_t memWords; ///< prog.memWords, read per access
    /** Cache of &prog.procs[proc].blocks[block], refreshed by
     *  normalize() — the hot path reads the current block through
     *  this instead of two vector indirections per step. Stale (and
     *  unused) once halted. */
    const BasicBlock *curBlk = nullptr;
    std::array<std::int64_t, numIntArchRegs> iregs{};
    std::array<double, numFpArchRegs> fregs{};
    std::vector<std::int64_t> mem;
    std::vector<Frame> stack;
    int proc;
    int block = 0;
    int instIdx = 0;
    bool _halted = false;
    std::uint64_t _instsExecuted = 0;
};

} // namespace siq

#endif // SIQ_IR_EXEC_HH
