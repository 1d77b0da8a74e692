/**
 * @file
 * Result<T>: a value-or-error return type for recoverable ingestion
 * paths.
 *
 * fatal() throws FatalError, which single-request tools (the CLI, the
 * benches) catch at main() and turn into exit code 1. A long-lived,
 * multi-tenant process cannot treat every malformed input as an
 * exceptional control-flow event at a distance: the serve daemon
 * (sim/serve.hh) parses untrusted request bytes on its own threads,
 * and an error there must become an *error record on one client's
 * stream*, never a process exit and never an aborted sibling request.
 * The ingestion boundary — spec JSON parsing, which validates the
 * workload specs it carries — therefore exposes Result-returning
 * entry points (trySpecFromJson, tryReadSpecJson) built with
 * asResult over the fail-fast parsers the CLI calls directly.
 */

#ifndef SIQ_COMMON_RESULT_HH
#define SIQ_COMMON_RESULT_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace siq
{

/** A value or a user-facing error message, never both. */
template <typename T>
class Result
{
  public:
    /** An ok result holding @p value. */
    static Result
    ok(T value)
    {
        Result r;
        r.val.emplace(std::move(value));
        return r;
    }

    /** An error result with a human-readable message. */
    static Result
    error(std::string message)
    {
        Result r;
        r.err = std::move(message);
        return r;
    }

    /** True when the result holds a value. */
    explicit operator bool() const { return val.has_value(); }

    /// @name Value access (asserts the result is ok).
    /// @{
    T &
    value()
    {
        SIQ_ASSERT(val.has_value(), "Result::value() on an error");
        return *val;
    }

    const T &
    value() const
    {
        SIQ_ASSERT(val.has_value(), "Result::value() on an error");
        return *val;
    }
    /// @}

    /** The error message (asserts the result is an error). */
    const std::string &
    error() const
    {
        SIQ_ASSERT(!val.has_value(), "Result::error() on a value");
        return err;
    }

    /** Unwrap, converting an error into fatal() — the bridge back to
     *  the fail-fast callers. */
    T
    orFatal() &&
    {
        if (!val.has_value())
            fatal(err);
        return std::move(*val);
    }

  private:
    Result() = default;
    std::optional<T> val;
    std::string err;
};

/**
 * Run @p fn, capturing a thrown FatalError as a Result error: the
 * adapter for ingestion code that still reports through fatal()
 * internally (deep parser call chains) but must not unwind past a
 * request boundary. FatalError is documented as the recoverable
 * user-error channel (common/logging.hh); panic() — a simulator bug —
 * still aborts.
 */
template <typename Fn>
auto
asResult(Fn &&fn) -> Result<decltype(fn())>
{
    using R = Result<decltype(fn())>;
    try {
        return R::ok(fn());
    } catch (const FatalError &e) {
        return R::error(e.what());
    }
}

} // namespace siq

#endif // SIQ_COMMON_RESULT_HH
