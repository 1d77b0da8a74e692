#include "sim/report.hh"

#include <array>
#include <charconv>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"

namespace siq::sim
{

namespace
{

// the JSON tree/parser and the whole-token numeric validators live in
// common/json (shared with the serve daemon's request parsing)
using JsonValue = json::Value;
using json::quote;

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ----------------------------------------------------- field helpers

void
appendCellJson(std::ostream &os, const RunResult &r)
{
    os << "{\"benchmark\":" << quote(r.benchmark)
       << ",\"technique\":" << quote(r.technique)
       << ",\"family\":" << quote(techniqueName(r.tech))
       << ",\"generateSeconds\":" << fmtDouble(r.generateSeconds);
    // wall-clock metadata added after the v5 schema: emitted only
    // when nonzero so canonicalize()d output (which zeroes them)
    // keeps its historical bytes — the determinism pin digests those
    if (r.traceSeconds != 0.0)
        os << ",\"traceSeconds\":" << fmtDouble(r.traceSeconds);
    if (r.compileSeconds != 0.0)
        os << ",\"compileSeconds\":" << fmtDouble(r.compileSeconds);
    os << ",\"stats\":{";
    const char *sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.stats.f;                             \
    sep = ",";
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // speculative-front-end counters: nonzero-only, so oracle-mode
    // exports keep their historical bytes (and the determinism-pin
    // digest) — the same schema-evolution pattern as traceSeconds
#define X(f)                                                             \
    if (r.stats.f != 0)                                                  \
        os << ",\"" #f "\":" << r.stats.f;
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    os << "},\"iq\":{";
    sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.iq.f;                                \
    sep = ",";
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    os << "},\"compile\":{";
    sep = "";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << r.compile.f;                           \
    sep = ",";
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    os << sep << "\"seconds\":" << fmtDouble(r.compile.seconds)
       << "}}";
}

RunResult
cellFromJson(const JsonValue &v)
{
    RunResult r;
    r.benchmark = v.at("benchmark").asString();
    r.technique = v.at("technique").asString();
    const std::string &family = v.at("family").asString();
    const auto tech = techniqueFromName(family);
    if (!tech)
        fatal("report JSON: unknown technique family '", family, "'");
    r.tech = *tech;
    r.generateSeconds = v.at("generateSeconds").asDouble();
    // optional (nonzero-only) keys — absent in pre-v6 and canonical
    // output, same schema-evolution pattern as the "seeds" key
    if (const JsonValue *ts = v.find("traceSeconds"))
        r.traceSeconds = ts->asDouble();
    if (const JsonValue *cs = v.find("compileSeconds"))
        r.compileSeconds = cs->asDouble();
    const JsonValue &stats = v.at("stats");
    const JsonValue &iq = v.at("iq");
    const JsonValue &compile = v.at("compile");
#define X(f) r.stats.f = stats.at(#f).asU64();
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // optional: absent whenever zero (always, in oracle mode)
#define X(f)                                                             \
    if (const JsonValue *sv = stats.find(#f))                            \
        r.stats.f = sv->asU64();
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) r.iq.f = iq.at(#f).asU64();
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f)                                                             \
    r.compile.f =                                                        \
        static_cast<std::size_t>(compile.at(#f).asU64());
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    r.compile.seconds = compile.at("seconds").asDouble();
    // pre-v6 exports carry annotation time only inside the compile
    // block; mirror it so macro-driven CSV re-export stays lossless
    if (r.compileSeconds == 0.0)
        r.compileSeconds = r.compile.seconds;
    return r;
}

void
appendMetricJson(std::ostream &os, const char *name,
                 const MetricAggregate &m)
{
    os << "\"" << name << "\":{\"mean\":" << fmtDouble(m.mean)
       << ",\"stddev\":" << fmtDouble(m.stddev)
       << ",\"ci95\":" << fmtDouble(m.ci95) << "}";
}

void
appendAggJson(std::ostream &os, const CellAggregate &agg)
{
    os << "{\"n\":" << agg.n << ",";
    appendMetricJson(os, "ipc", agg.ipc);
    os << ",\"stats\":{";
    const char *sep = "";
#define X(f)                                                             \
    os << sep;                                                           \
    appendMetricJson(os, #f, agg.stats_##f);                             \
    sep = ",";
    SIQ_CORE_STATS_FIELDS(X)
#undef X
    // spec counters are non-negative, so an all-zero replica set has
    // mean 0: gate on it to keep oracle aggregate bytes unchanged
#define X(f)                                                             \
    if (agg.stats_##f.mean != 0.0) {                                     \
        os << sep;                                                       \
        appendMetricJson(os, #f, agg.stats_##f);                         \
        sep = ",";                                                       \
    }
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    os << "},\"iq\":{";
    sep = "";
#define X(f)                                                             \
    os << sep;                                                           \
    appendMetricJson(os, #f, agg.iq_##f);                                \
    sep = ",";
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    os << "}}";
}

MetricAggregate
metricFromJson(const JsonValue &v)
{
    MetricAggregate m;
    m.mean = v.at("mean").asDouble();
    m.stddev = v.at("stddev").asDouble();
    m.ci95 = v.at("ci95").asDouble();
    return m;
}

CellAggregate
aggFromJson(const JsonValue &v)
{
    CellAggregate agg;
    agg.n = v.at("n").asU64();
    agg.ipc = metricFromJson(v.at("ipc"));
    const JsonValue &stats = v.at("stats");
    const JsonValue &iq = v.at("iq");
#define X(f) agg.stats_##f = metricFromJson(stats.at(#f));
    SIQ_CORE_STATS_FIELDS(X)
#undef X
#define X(f)                                                             \
    if (const JsonValue *sv = stats.find(#f))                            \
        agg.stats_##f = metricFromJson(*sv);
    SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
#define X(f) agg.iq_##f = metricFromJson(iq.at(#f));
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
    return agg;
}

/** The cache counters as one JSON object; the trace half only when
 *  @p withTrace. */
void
appendCacheJson(std::ostream &os, const SweepCacheStats &c,
                bool withTrace)
{
    const char *sep = "{";
#define X(f)                                                             \
    os << sep << "\"" #f "\":" << c.f;                                   \
    sep = ",";
    SIQ_CACHE_BUILD_FIELDS(X)
    if (withTrace) {
        SIQ_CACHE_TRACE_FIELDS(X)
    }
#undef X
    os << "}";
}

/** Read appendCacheJson output; the trace half may be absent unless
 *  @p traceRequired. */
SweepCacheStats
cacheFromJson(const JsonValue &v, bool traceRequired)
{
    SweepCacheStats s;
#define X(f) s.f = v.at(#f).asU64();
    SIQ_CACHE_BUILD_FIELDS(X)
    if (traceRequired || v.find("traceBuilds") != nullptr) {
        SIQ_CACHE_TRACE_FIELDS(X)
    }
#undef X
    return s;
}

} // namespace

// --------------------------------------------------------------- API

std::string
toJson(const RunResult &result)
{
    std::ostringstream os;
    appendCellJson(os, result);
    return os.str();
}

void
writeJson(std::ostream &os, const SweepResult &result)
{
    os << "{\"benchmarks\":[";
    for (std::size_t i = 0; i < result.benchmarks.size(); i++)
        os << (i ? "," : "") << quote(result.benchmarks[i]);
    os << "],\"techniques\":[";
    for (std::size_t i = 0; i < result.techniques.size(); i++)
        os << (i ? "," : "") << quote(result.techniques[i]);
    os << "],\"jobs\":" << result.jobsUsed
       << ",\"wallSeconds\":" << fmtDouble(result.wallSeconds)
       << ",\"cache\":";
    // trace-cache counters (nonzero only with tracing on; all zeroed
    // by canonicalize()) stay out of the historical cache schema so
    // canonical bytes — and the determinism-pin digest — don't move
    bool anyTrace = false;
#define X(f) anyTrace |= result.cache.f != 0;
    SIQ_CACHE_TRACE_FIELDS(X)
#undef X
    appendCacheJson(os, result.cache, anyTrace);
    // replication block only when aggregates exist, so seeds == 1
    // output (and the empty matrix) keeps the unreplicated schema and
    // always reads back
    if (!result.aggregates.empty())
        os << ",\"seeds\":" << result.seeds;
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        if (i)
            os << ",";
        os << "\n";
        appendCellJson(os, result.cells[i]);
    }
    os << "\n]";
    if (!result.aggregates.empty()) {
        os << ",\"aggregates\":[";
        for (std::size_t i = 0; i < result.aggregates.size(); i++) {
            if (i)
                os << ",";
            os << "\n";
            appendAggJson(os, result.aggregates[i]);
        }
        os << "\n]";
    }
    os << "}\n";
}

SweepResult
readJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    const JsonValue root = json::parse(text);

    SweepResult result;
    for (const auto &b : root.at("benchmarks").array)
        result.benchmarks.push_back(b.asString());
    for (const auto &t : root.at("techniques").array)
        result.techniques.push_back(t.asString());
    result.jobsUsed = static_cast<int>(root.at("jobs").asU64());
    result.wallSeconds = root.at("wallSeconds").asDouble();
    result.cache = cacheFromJson(root.at("cache"), false);
    for (const auto &cell : root.at("cells").array)
        result.cells.push_back(cellFromJson(cell));
    if (const JsonValue *seeds = root.find("seeds")) {
        result.seeds = static_cast<int>(seeds->asU64());
        for (const auto &agg : root.at("aggregates").array)
            result.aggregates.push_back(aggFromJson(agg));
        if (result.seeds < 2 ||
            result.aggregates.size() != result.cells.size())
            fatal("report JSON: aggregates do not match the matrix");
    }

    // SweepResult::at() assumes a complete technique-major matrix;
    // reject filtered, reordered or hand-edited cell arrays
    const std::size_t nb = result.benchmarks.size();
    if (result.cells.size() != nb * result.techniques.size())
        fatal("report JSON: cell count does not match the matrix");
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        const RunResult &r = result.cells[i];
        if (r.benchmark != result.benchmarks[i % nb] ||
            r.technique != result.techniques[i / nb])
            fatal("report JSON: cells are not in technique-major "
                  "matrix order (cell ", i, ")");
    }
    return result;
}

void
writeCsv(std::ostream &os, const SweepResult &result)
{
    const bool agg = !result.aggregates.empty();
    // speculative-front-end columns appear only when some cell ran
    // with the real front end, so oracle-mode CSVs keep their
    // historical bytes (same reasoning as the aggregate columns)
    bool spec = false;
    for (const RunResult &r : result.cells) {
#define X(f) spec = spec || r.stats.f != 0;
        SIQ_CORE_SPEC_STATS_FIELDS(X)
#undef X
    }
    os << "benchmark,technique,family";
#define X(f) os << "," #f;
    SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) os << ",stats_" #f;
    SIQ_CORE_STATS_FIELDS(X)
    if (spec) {
        SIQ_CORE_SPEC_STATS_FIELDS(X)
    }
#undef X
#define X(f) os << ",iq_" #f;
    SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f) os << ",compile_" #f;
    SIQ_COMPILE_STATS_FIELDS(X)
#undef X
    // aggregate columns only when replicated, so seeds == 1 output is
    // byte-identical to the unreplicated schema
    if (agg) {
        os << ",n,ipc_mean,ipc_stddev,ipc_ci95";
#define X(f)                                                             \
    os << ",stats_" #f "_mean,stats_" #f "_stddev,stats_" #f "_ci95";
        SIQ_CORE_STATS_FIELDS(X)
        if (spec) {
            SIQ_CORE_SPEC_STATS_FIELDS(X)
        }
#undef X
#define X(f) os << ",iq_" #f "_mean,iq_" #f "_stddev,iq_" #f "_ci95";
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
    }
    os << "\n";
    for (std::size_t i = 0; i < result.cells.size(); i++) {
        const RunResult &r = result.cells[i];
        os << r.benchmark << ',' << r.technique << ','
           << techniqueName(r.tech);
#define X(f) os << ',' << fmtDouble(r.f);
        SIQ_RUN_TIMING_FIELDS(X)
#undef X
#define X(f) os << ',' << r.stats.f;
        SIQ_CORE_STATS_FIELDS(X)
        if (spec) {
            SIQ_CORE_SPEC_STATS_FIELDS(X)
        }
#undef X
#define X(f) os << ',' << r.iq.f;
        SIQ_IQ_EVENT_FIELDS(X)
#undef X
#define X(f) os << ',' << r.compile.f;
        SIQ_COMPILE_STATS_FIELDS(X)
#undef X
        if (agg) {
            const CellAggregate &a = result.aggregates[i];
            auto metric = [&os](const MetricAggregate &m) {
                os << ',' << fmtDouble(m.mean) << ','
                   << fmtDouble(m.stddev) << ',' << fmtDouble(m.ci95);
            };
            os << ',' << a.n;
            metric(a.ipc);
#define X(f) metric(a.stats_##f);
            SIQ_CORE_STATS_FIELDS(X)
            if (spec) {
                SIQ_CORE_SPEC_STATS_FIELDS(X)
            }
#undef X
#define X(f) metric(a.iq_##f);
            SIQ_IQ_EVENT_FIELDS(X)
#undef X
        }
        os << "\n";
    }
}

namespace
{

// -------------------------------------------------- spec (de)serial

// Field visitors over the spec's config structs (sim/fields.hh): fn
// sees each serialized member, with its key, in key order.
#define SIQ_VISIT_FIELD(f) fn(#f, c.f);
#define SIQ_FIELD_VISITOR(Type, LIST)                                    \
    template <class Fn>                                                  \
    void forEachField(const Type &c, Fn &&fn)                            \
    {                                                                    \
        LIST(SIQ_VISIT_FIELD)                                            \
    }                                                                    \
    template <class Fn>                                                  \
    void forEachField(Type &c, Fn &&fn)                                  \
    {                                                                    \
        LIST(SIQ_VISIT_FIELD)                                            \
    }
SIQ_FIELD_VISITOR(CacheConfig, SIQ_CACHE_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(RegFileConfig, SIQ_REG_FILE_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(IqConfig, SIQ_IQ_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(LsqConfig, SIQ_LSQ_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(BpredConfig, SIQ_BPRED_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(MemHierarchyConfig, SIQ_MEM_HIERARCHY_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(CoreConfig, SIQ_CORE_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(workloads::WorkloadParams, SIQ_WORKLOAD_PARAMS_FIELDS)
SIQ_FIELD_VISITOR(AbellaConfig, SIQ_ABELLA_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(FolegnaniConfig, SIQ_FOLEGNANI_CONFIG_FIELDS)
SIQ_FIELD_VISITOR(RunConfig, SIQ_RUN_CONFIG_FIELDS)
#undef SIQ_FIELD_VISITOR
#undef SIQ_VISIT_FIELD

/** The one field written only when true, so oracle-mode specs (and
 *  the determinism-pin digest over exports embedding them) keep the
 *  bytes they had before the speculative front end existed. */
constexpr std::string_view emitOnlyWhenTrue = "specFrontEnd";

template <class T>
constexpr bool isBool = std::is_same_v<std::remove_cvref_t<T>, bool>;

template <class T>
constexpr bool isArray = false;
template <class T, std::size_t N>
constexpr bool isArray<std::array<T, N>> = true;

/** Append one spec value as JSON, one branch per value kind; a
 *  nested config struct is an object in field-list order. Appends
 *  to a string, not a stream: the spec is serialized on the serve
 *  request path. */
template <class T>
void
writeValue(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, double>) {
        out += fmtDouble(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out += quote(v);
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    } else if constexpr (isArray<T>) {
        for (std::size_t i = 0; i < v.size(); i++) {
            out += i ? ',' : '[';
            writeValue(out, v[i]);
        }
        out += ']';
    } else {
        char sep = '{';
        forEachField(v, [&](const char *key, const auto &f) {
            if constexpr (isBool<decltype(f)>) {
                if (!f && key == emitOnlyWhenTrue)
                    return;
            }
            out += sep;
            out += '"';
            out += key;
            out += "\":";
            writeValue(out, f);
            sep = ',';
        });
        out += '}';
    }
}

/** Inverse of writeValue; fatal on a missing key, a kind mismatch or
 *  an out-of-range number. */
template <class T>
void
readValue(const JsonValue &j, T &out)
{
    if constexpr (std::is_same_v<T, int>) {
        out = j.asInt();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        // range-checked, never truncated: 2^32 + 512 must not
        // configure a 512-entry table
        const std::uint64_t v = j.asU64();
        if (v > std::numeric_limits<std::uint32_t>::max())
            fatal("spec JSON: value out of 32-bit range: ", j.token);
        out = static_cast<std::uint32_t>(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        out = j.asU64();
    } else if constexpr (std::is_same_v<T, double>) {
        out = j.asDouble();
    } else if constexpr (std::is_same_v<T, bool>) {
        out = j.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = j.asString();
    } else if constexpr (isArray<T>) {
        if (j.array.size() != out.size())
            fatal("spec JSON: expected an array of ", out.size(),
                  " entries, got ", j.array.size());
        for (std::size_t i = 0; i < out.size(); i++)
            readValue(j.array[i], out[i]);
    } else {
        forEachField(out, [&](const char *key, auto &f) {
            if constexpr (isBool<decltype(f)>) {
                if (key == emitOnlyWhenTrue) {
                    if (const JsonValue *fj = j.find(key))
                        readValue(*fj, f);
                    return;
                }
            }
            readValue(j.at(key), f);
        });
    }
}

/** One benchmark-axis entry: the structured WorkloadSpec form.
 *  "params" is present only when overrides exist, so parameterless
 *  families stay minimal. Validates (and canonicalizes) through the
 *  family registry. */
void
appendWorkloadSpecJson(std::ostream &os, const std::string &text)
{
    const auto spec = workloads::WorkloadSpec::parse(text);
    os << "{\"family\":" << quote(spec.family);
    if (!spec.params.empty()) {
        os << ",\"params\":{";
        const char *sep = "";
        for (const auto &[name, value] : spec.params) {
            os << sep << quote(name) << ":" << value;
            sep = ",";
        }
        os << "}";
    }
    os << "}";
}

/** Accepts both the structured object form and (for hand-written
 *  specs) a plain string; returns the canonical spec string. */
std::string
workloadSpecFromJson(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::String)
        return workloads::canonicalWorkload(v.asString());
    std::string text = v.at("family").asString();
    if (const JsonValue *params = v.find("params")) {
        for (const auto &[name, value] : params->object) {
            if (value.kind != JsonValue::Kind::Number)
                fatal("spec JSON: workload parameter '", name,
                      "' must be an integer");
            text += ':' + name + '=' + value.token;
        }
    }
    return workloads::canonicalWorkload(text);
}

} // namespace

void
writeSpecJson(std::ostream &os, const SweepSpec &spec)
{
    os << "{\"benchmarks\":[";
    for (std::size_t i = 0; i < spec.benchmarks.size(); i++) {
        os << (i ? "," : "");
        appendWorkloadSpecJson(os, spec.benchmarks[i]);
    }
    os << "],\"techniques\":[";
    for (std::size_t i = 0; i < spec.techniques.size(); i++)
        os << (i ? "," : "") << quote(spec.techniques[i]);
    std::string base;
    writeValue(base, spec.base);
    os << "],\"jobs\":" << spec.jobs << ",\"seeds\":" << spec.seeds
       << ",\n\"base\":" << base << "}\n";
}

std::string
toJson(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSpecJson(os, spec);
    return os.str();
}

SweepSpec
specFromJson(const json::Value &root)
{
    SweepSpec spec;
    for (const auto &b : root.at("benchmarks").array)
        spec.benchmarks.push_back(workloadSpecFromJson(b));
    for (const auto &t : root.at("techniques").array)
        spec.techniques.push_back(t.asString());
    spec.jobs = root.at("jobs").asInt();
    spec.seeds = root.at("seeds").asInt();
    if (spec.seeds < 0)
        fatal("spec JSON: seeds must be >= 0, got ", spec.seeds);
    readValue(root.at("base"), spec.base);
    for (const auto &t : spec.techniques) {
        if (findTechnique(t) == nullptr)
            fatal("spec JSON: unknown technique '", t, "'");
    }
    return spec;
}

SweepSpec
readSpecJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    return specFromJson(json::parse(buf.str()));
}

Result<SweepSpec>
trySpecFromJson(const json::Value &root)
{
    return asResult([&] { return specFromJson(root); });
}

Result<SweepSpec>
tryReadSpecJson(const std::string &text)
{
    return asResult(
        [&] { return specFromJson(json::parse(text)); });
}

std::string
toJson(const CellCheckpoint &ckpt)
{
    std::ostringstream os;
    os << "{\"index\":" << ckpt.index << ",\"seeds\":" << ckpt.seeds
       << ",\"cell\":";
    appendCellJson(os, ckpt.cell);
    if (ckpt.seeds > 1) {
        os << ",\"aggregate\":";
        appendAggJson(os, ckpt.aggregate);
    }
    os << "}\n";
    return os.str();
}

CellCheckpoint
cellCheckpointFromJson(const std::string &text)
{
    const JsonValue root = json::parse(text);
    CellCheckpoint ckpt;
    ckpt.index = static_cast<std::size_t>(root.at("index").asU64());
    ckpt.seeds = root.at("seeds").asInt();
    if (ckpt.seeds < 1)
        fatal("checkpoint JSON: seeds must be >= 1, got ", ckpt.seeds);
    ckpt.cell = cellFromJson(root.at("cell"));
    if (ckpt.seeds > 1)
        ckpt.aggregate = aggFromJson(root.at("aggregate"));
    return ckpt;
}

std::string
toJson(const SweepCacheStats &cache)
{
    std::ostringstream os;
    appendCacheJson(os, cache, true);
    return os.str();
}

SweepCacheStats
cacheStatsFromJson(const std::string &text)
{
    return cacheFromJson(json::parse(text), true);
}

void
canonicalize(RunResult &cell)
{
#define X(f) cell.f = 0.0;
    SIQ_RUN_TIMING_FIELDS(X)
#undef X
    cell.compile.seconds = 0.0;
}

void
canonicalize(SweepResult &result)
{
    result.jobsUsed = 0;
    result.wallSeconds = 0.0;
    result.cache = SweepCacheStats{};
    for (auto &cell : result.cells)
        canonicalize(cell);
}

void
writePowerCsv(std::ostream &os, const SweepResult &result,
              const std::string &baselineTechnique,
              const power::IqPowerParams &iqParams,
              const power::RfPowerParams &rfParams)
{
    std::size_t baseIdx = result.techniques.size();
    for (std::size_t t = 0; t < result.techniques.size(); t++) {
        if (result.techniques[t] == baselineTechnique)
            baseIdx = t;
    }
    if (baseIdx == result.techniques.size())
        fatal("power CSV: baseline technique '", baselineTechnique,
              "' not in the sweep");

    os << "benchmark,technique,iqDynamicSaving,iqStaticSaving,"
          "rfDynamicSaving,rfStaticSaving,nonEmptySaving\n";
    for (std::size_t t = 0; t < result.techniques.size(); t++) {
        if (t == baseIdx)
            continue;
        for (std::size_t b = 0; b < result.benchmarks.size(); b++) {
            const auto cmp =
                comparePower(result.at(baseIdx, b), result.at(t, b),
                             iqParams, rfParams);
            os << result.benchmarks[b] << ','
               << result.techniques[t] << ','
               << fmtDouble(cmp.iqDynamicSaving) << ','
               << fmtDouble(cmp.iqStaticSaving) << ','
               << fmtDouble(cmp.rfDynamicSaving) << ','
               << fmtDouble(cmp.rfStaticSaving) << ','
               << fmtDouble(cmp.nonEmptySaving) << "\n";
        }
    }
}

} // namespace siq::sim
