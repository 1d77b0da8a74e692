/**
 * @file
 * Interface between the core and hardware resizing heuristics (the
 * comparator techniques of the paper: Folegnani&González and
 * Abella&González). The controller observes per-cycle signals and
 * publishes occupancy limits that dispatch honours; the compiler-hint
 * mechanism is separate (it acts through new_head/max_new_range).
 */

#ifndef SIQ_CPU_RESIZE_HH
#define SIQ_CPU_RESIZE_HH

#include <cstdint>

namespace siq
{

/** Per-cycle observations delivered to a resize controller. */
struct ResizeSignals
{
    int iqValid = 0;
    /** Issues whose entry sat in the youngest bank-worth of slots. */
    int issuedFromYoungestBank = 0;
    /** Dispatch was blocked this cycle by the controller's limit. */
    bool dispatchStalledByLimit = false;
};

/**
 * Hardware IQ/ROB occupancy limiter. iqLimit() and robLimit() may
 * change only inside tick(): the core reads them once at construction
 * and again after every tick, and dispatch honours those copies.
 */
class IqLimitController
{
  public:
    virtual ~IqLimitController() = default;

    /** Called once per simulated cycle. */
    virtual void tick(const ResizeSignals &signals) = 0;

    /** Max valid IQ entries dispatch may maintain. */
    virtual int iqLimit() const = 0;

    /** Max ROB occupancy dispatch may maintain. */
    virtual int robLimit() const = 0;

    /**
     * Cycles until iqLimit()/robLimit() may next change. The core's
     * idle fast-forward (DESIGN.md §12) batches provably-dead cycles;
     * with a controller attached it never jumps further than this, so
     * a limit change always takes effect on exactly the cycle it
     * would in a cycle-by-cycle run. Interval-based resizers return
     * the distance to their interval boundary; the default of 1
     * (limits may move any cycle) keeps any other controller exact.
     */
    virtual std::uint64_t decisionHorizon() const { return 1; }
};

} // namespace siq

#endif // SIQ_CPU_RESIZE_HH
