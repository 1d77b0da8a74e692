/**
 * @file
 * Minimal JSON tree and recursive-descent parser, shared by the
 * report (de)serializers (sim/report.cc) and the serve daemon's
 * request envelope parsing (sim/serve.cc).
 *
 * Numbers keep their raw source token so integer counters convert
 * exactly (the report round-trip guarantee); strings are decoded.
 * Malformed input is reported through fatal() — i.e. a thrown
 * FatalError — so callers choose between fail-fast (the CLI) and
 * per-request recovery (asResult / the serve daemon's error records).
 */

#ifndef SIQ_COMMON_JSON_HH
#define SIQ_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace siq::json
{

/** One JSON value; object members keep source order. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string token; ///< raw number token or decoded string
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /** Member lookup; fatal when @p key is absent. */
    const Value &at(const std::string &key) const;

    /** Optional member lookup for schema-evolution keys. */
    const Value *find(const std::string &key) const;

    /// @name Typed accessors; fatal on kind/format mismatch.
    /// @{
    std::uint64_t asU64() const;
    double asDouble() const;
    int asInt() const;
    bool asBool() const;
    const std::string &asString() const;
    /// @}
};

/** Parse one complete JSON document; fatal on malformed input or
 *  trailing bytes. */
Value parse(const std::string &text);

/** JSON string literal: quote and escape @p s. */
std::string quote(const std::string &s);

} // namespace siq::json

#endif // SIQ_COMMON_JSON_HH
