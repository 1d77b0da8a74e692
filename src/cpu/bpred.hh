/**
 * @file
 * Branch direction and target prediction per Table 1 of the paper:
 * a hybrid of 2K-entry gshare and 2K-entry bimodal tables with a
 * 1K-entry selector, a 2048-entry 4-way BTB, and a return address
 * stack (8 entries, the SimpleScalar default the paper's simulator
 * inherits).
 *
 * The predictor is built from three independently testable
 * components — DirectionPredictor (gshare/bimodal/selector hybrid),
 * Btb, and Ras — composed by the Bpred facade the core uses. Each
 * component carries the speculative-state hooks the wrong-path front
 * end needs: the direction predictor can shift history on a
 * speculative outcome without touching the tables, and the history +
 * RAS can be checkpointed at a mispredicted branch and restored at
 * squash (the BTB and the 2-bit counters are not checkpointed —
 * wrong-path execution never writes them).
 */

#ifndef SIQ_CPU_BPRED_HH
#define SIQ_CPU_BPRED_HH

#include <cstdint>
#include <vector>

namespace siq
{

/** Branch predictor configuration (Table 1 defaults). The direction
 *  tables and the BTB set count (entries / assoc) must be powers of
 *  two: they are indexed by masking. */
struct BpredConfig
{
    std::uint32_t gshareEntries = 2048;
    std::uint32_t bimodalEntries = 2048;
    std::uint32_t selectorEntries = 1024;
    std::uint32_t btbEntries = 2048;
    std::uint32_t btbAssoc = 4;
    std::uint32_t rasEntries = 8;
};

/**
 * Hybrid gshare/bimodal direction predictor with a selector table.
 * Global history indexes the gshare table; the selector (indexed by
 * pc) arbitrates, trained only when the two components disagree.
 */
class DirectionPredictor
{
  public:
    DirectionPredictor(std::uint32_t gshareEntries,
                       std::uint32_t bimodalEntries,
                       std::uint32_t selectorEntries);

    /** Predict the direction of a conditional branch at @p pc. */
    bool predict(std::uint64_t pc) const;

    /** Update tables and shift global history with the outcome. */
    void update(std::uint64_t pc, bool taken);

    /**
     * Shift global history with a speculative outcome, leaving the
     * tables untouched (a real gshare speculates its history down
     * the predicted path; squash restores it via setHistory()).
     */
    void speculate(bool taken);

    /// @name History checkpointing for squash/recovery.
    /// @{
    std::uint64_t historyBits() const { return history; }
    void setHistory(std::uint64_t h) { history = h; }
    /// @}

  private:
    static std::uint32_t counterUpdate(std::uint32_t ctr, bool taken);

    std::vector<std::uint8_t> gshare;   ///< 2-bit counters
    std::vector<std::uint8_t> bimodal;  ///< 2-bit counters
    std::vector<std::uint8_t> selector; ///< 2-bit: >=2 favours gshare
    std::uint64_t history = 0;
};

/** Set-associative branch target buffer, true-LRU per set. */
class Btb
{
  public:
    Btb(std::uint32_t entries, std::uint32_t assoc);

    /** @return predicted target or 0 on miss. */
    std::uint64_t lookup(std::uint64_t pc) const;

    /** Install/refresh a taken branch target. */
    void update(std::uint64_t pc, std::uint64_t target);

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t _assoc;
    std::uint64_t setMask = 0; ///< sets - 1 (sets is a power of two)
    int setShift = 0;          ///< log2(sets)
    std::vector<Entry> entries;
    std::uint64_t use = 0;
};

/**
 * Return address stack. Overflow sheds the oldest entry (shift);
 * underflow returns 0 (a misfetch that gates the front end).
 */
class Ras
{
  public:
    explicit Ras(std::uint32_t entries);

    void push(std::uint64_t returnPc);
    /** Pop a predicted return target; 0 when empty. */
    std::uint64_t pop();

    std::size_t depth() const { return top; }
    std::size_t capacity() const { return stack.size(); }

    /** Snapshot of the full stack for squash/recovery. */
    struct Snapshot
    {
        std::vector<std::uint64_t> stack;
        std::size_t top = 0;
    };
    void save(Snapshot &out) const;
    void restore(const Snapshot &snap);

  private:
    std::vector<std::uint64_t> stack;
    std::size_t top = 0; ///< number of valid entries
};

/**
 * Speculative front-end state captured when a mispredicted branch is
 * fetched and restored when it resolves: the global history register
 * and the full RAS. (Direction counters and BTB are only written by
 * resolved correct-path branches, so they need no checkpoint.)
 */
struct BpredSnapshot
{
    std::uint64_t history = 0;
    Ras::Snapshot ras;
};

/** Hybrid direction predictor + BTB + RAS facade used by the core. */
class Bpred
{
  public:
    explicit Bpred(const BpredConfig &config);

    /** Predict the direction of a conditional branch at @p pc. */
    bool predictDirection(std::uint64_t pc) const;

    /**
     * Update the direction tables and global history with the actual
     * outcome. (Updated at fetch with the oracle outcome — the usual
     * idealisation for execute-at-fetch simulators; identical across
     * all configurations, so relative results are unaffected.)
     */
    void updateDirection(std::uint64_t pc, bool taken);

    /**
     * Wrong-path conditional branch: predict a direction and shift
     * the global history with it, without training the tables (no
     * resolved outcome ever arrives for a wrong-path branch).
     */
    bool speculateDirection(std::uint64_t pc);

    /** BTB lookup; @return predicted target or 0 on miss. */
    std::uint64_t btbLookup(std::uint64_t pc) const;

    /** Install/refresh a taken branch target. */
    void btbUpdate(std::uint64_t pc, std::uint64_t target);

    /// @name Return address stack.
    /// @{
    void rasPush(std::uint64_t returnPc);
    /** Pop a predicted return target; 0 when empty. */
    std::uint64_t rasPop();
    /// @}

    /// @name Checkpoint/restore for wrong-path squash recovery.
    /// @{
    void save(BpredSnapshot &out) const;
    void restore(const BpredSnapshot &snap);
    /// @}

    /// @name Accuracy statistics.
    /// @{
    std::uint64_t lookups() const { return _lookups; }
    std::uint64_t mispredicts() const { return _mispredicts; }
    void countMispredict() { _mispredicts++; }
    void resetStats() { _lookups = _mispredicts = 0; }
    /// @}

  private:
    DirectionPredictor dir;
    Btb _btb;
    Ras _ras;
    mutable std::uint64_t _lookups = 0;
    std::uint64_t _mispredicts = 0;
};

} // namespace siq

#endif // SIQ_CPU_BPRED_HH
