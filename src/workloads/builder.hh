/**
 * @file
 * Structured construction of siqsim programs.
 *
 * The builder keeps a cursor (current procedure, current block) and
 * offers helpers for the control shapes the synthetic SPECint-profile
 * workloads need: counted loops, calls with continuation blocks,
 * if/else diamonds and indirect-jump switches. It also manages the
 * data-memory image through a bump allocator.
 */

#ifndef SIQ_WORKLOADS_BUILDER_HH
#define SIQ_WORKLOADS_BUILDER_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace siq
{

/** Incremental program constructor; see file comment. */
class ProgramBuilder
{
  public:
    ProgramBuilder(std::string name, std::uint64_t memWords);

    /// @name Procedures and blocks.
    /// @{
    /** Create a procedure (with its entry block) and switch to it. */
    int newProc(const std::string &name, bool isLibrary = false);
    /** Create an empty block in the current procedure. */
    int newBlock();
    /** Move the emission cursor to @p blockId in the current proc. */
    void switchTo(int blockId);
    void switchToProc(int procId, int blockId);
    /// @}

    /** Append an instruction to the current block. */
    void emit(const StaticInst &si);

    /** Set the current block's fallthrough and switch to the target. */
    void fallInto(int blockId);

    /** Terminate the current block with a jump (cursor unchanged). */
    void jumpTo(int blockId);

    /// @name Counted loops.
    /// @{
    struct Loop
    {
        int header = -1;
        int body = -1;
        int exit = -1;
        int counterReg = -1;
        int boundReg = -1;
    };

    /**
     * Open a loop `for (; counter < bound; counter += step)`.
     * The current block falls into the header; the cursor moves to the
     * first body block. The caller must initialise the counter first.
     */
    Loop beginLoop(int counterReg, int boundReg);

    /** Close a loop: bump the counter, jump back, cursor to exit. */
    void endLoop(const Loop &loop, std::int64_t step = 1);
    /// @}

    /**
     * Terminate the current block with a call; a fresh continuation
     * block is created and becomes the cursor.
     */
    void callProc(int procId);

    /// @name Two-way conditional (if/else diamond).
    /// @{
    struct Diamond
    {
        int thenBlock = -1;
        int elseBlock = -1;
        int join = -1;
    };

    /**
     * Terminate the current block with @p condBranch (its target is
     * patched to the then-block). Cursor moves to the then-block; use
     * elseBranch()/joinUp() to fill the rest.
     */
    Diamond beginIf(StaticInst condBranch);
    /** Jump from the current block to the join, cursor to else. */
    void elseBranch(const Diamond &d);
    /** Jump (or fall) into the join; cursor moves there. */
    void joinUp(const Diamond &d);
    /// @}

    /// @name Indirect-jump switch.
    /// @{
    struct Switch
    {
        std::vector<int> cases;
        int join = -1;
    };

    /**
     * Terminate the current block with an IJump over @p numCases new
     * case blocks. Cursor is left on the first case; the caller fills
     * each case (switchTo + emit) and ends it with jumpTo(join).
     */
    Switch beginSwitch(int indexReg, int numCases);
    /// @}

    /// @name Data memory.
    /// @{
    /** Reserve @p words of data memory; returns the base word address. */
    std::uint64_t alloc(std::uint64_t words);
    /** Set an initial memory value. */
    void initMem(std::uint64_t wordAddr, std::int64_t value);
    /** Make room for @p pairs more initMem() calls, so a generator
     *  that knows its image size grows the pair vector once. */
    void reserveMem(std::uint64_t pairs);
    /// @}

    /** Seal the memory image, finalize and return the program
     *  (builder becomes unusable). */
    Program build();

  private:
    BasicBlock &cur();

    Program prog;
    /** initMem() pairs, sealed into prog.memImage by build(). */
    std::vector<MemImage::Word> memInit;
    int curProc = -1;
    int curBlock = -1;
    std::uint64_t allocPtr = 64; // low words reserved (stack red zone)
    bool built = false;
};

} // namespace siq

#endif // SIQ_WORKLOADS_BUILDER_HH
