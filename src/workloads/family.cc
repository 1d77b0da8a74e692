#include "workloads/family.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace siq::workloads
{

namespace
{

/** Family and parameter names embed in canonical workload strings,
 *  CSV cells, JSON and checkpoint file names: token-like only. */
bool
tokenLike(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '-' || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

/** strtoll with whole-token validation (spec strings are user input). */
std::int64_t
parseValue(const std::string &spec, const std::string &token)
{
    if (token.empty())
        fatal("workload '", spec, "': empty parameter value");
    char *end = nullptr;
    errno = 0;
    const std::int64_t v = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE)
        fatal("workload '", spec, "': malformed integer '", token, "'");
    return v;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

/** Wrap a parameterless legacy generator. */
FamilyDef
plainFamily(std::string name, std::string summary,
            Program (*gen)(const WorkloadParams &))
{
    FamilyDef def;
    def.name = std::move(name);
    def.summary = std::move(summary);
    def.generate = [gen](const WorkloadParams &wp, const FamilyParams &) {
        return gen(wp);
    };
    return def;
}

std::vector<FamilyDef>
builtinFamilies()
{
    std::vector<FamilyDef> defs;

    // the eleven SPECint2000 profiles, in the paper's figure order
    // (workloads.hh has each profile's rationale)
    defs.push_back(plainFamily(
        "gzip", "high-ILP hash/window loops, cache-friendly", genGzip));
    defs.push_back(plainFamily(
        "vpr", "int+fp bounding-box cost loops, data-dependent abs branches",
        genVpr));
    defs.push_back(plainFamily(
        "gcc", "many tiny procedures, dense branching, a 24-way switch",
        genGcc));
    defs.push_back(plainFamily(
        "mcf", "serial pointer chasing over an L2-busting working set",
        genMcf));
    defs.push_back(plainFamily(
        "crafty", "bitboard logic chains, predictable branches, eval calls",
        genCrafty));
    defs.push_back(plainFamily(
        "parser", "tree recursion with stack spills plus list walks",
        genParser));
    defs.push_back(plainFamily(
        "perlbmk", "bytecode interpreter with a 16-way indirect dispatch",
        genPerlbmk));
    defs.push_back(plainFamily(
        "gap", "digit-array multiply-accumulate with carry chains",
        genGap));
    defs.push_back(plainFamily(
        "vortex", "call-dense object accessors, mul-heavy around calls",
        genVortex));
    defs.push_back(plainFamily(
        "bzip2", "sort loop, data-dependent compares, hot rank() callee",
        genBzip2));
    defs.push_back(plainFamily(
        "twolf", "mixed int/fp cell-cost loops with occasional divides",
        genTwolf));

    defs.push_back({
        "specfp",
        "SPECfp-profile long fp loop nests: regular strides, high ILP",
        {
            {"streams", 4, 1, 8,
             "independent fp array streams per iteration (ILP width)"},
            {"depth", 2, 1, 8,
             "dependent fp operations chained per stream element"},
            {"stride", 1, 1, 64, "array access stride in words"},
        },
        genSpecfp,
    });

    defs.push_back({
        "server",
        "OLTP-style hash-index probes: pointer-rich, noisy branches, "
        "large footprint",
        {
            {"footprintLog2", 18, 14, 21,
             "log2 of the index working set in words"},
            {"probeDepth", 3, 1, 8, "pointer hops walked per probe"},
            {"hotPct", 0, 0, 90,
             "percent of probes redirected to a hot subset"},
        },
        genServer,
    });

    defs.push_back({
        "phased",
        "alternating high-ILP and serial memory-bound phases "
        "(dynamic IQ demand)",
        {
            {"period", 4000, 64, 1 << 20,
             "inner-loop iterations per phase"},
            {"duty", 50, 5, 95,
             "percent of each period spent in the high-ILP phase"},
            {"memStride", 8209, 1, 65535,
             "stride of the memory-bound phase's chase cycle"},
        },
        genPhased,
    });

    return defs;
}

} // namespace

FamilyParams::FamilyParams(const FamilyDef &d,
                           std::vector<std::int64_t> v)
    : def(&d), values(std::move(v))
{
    SIQ_ASSERT(values.size() == def->params.size(),
               "family parameter vector mismatch");
}

std::int64_t
FamilyParams::at(std::string_view name) const
{
    for (std::size_t i = 0; i < def->params.size(); i++) {
        if (def->params[i].name == name)
            return values[i];
    }
    fatal("family '", def->name, "' has no parameter '",
          std::string(name), "'");
}

struct FamilyRegistry::Impl
{
    mutable std::mutex mu;
    /** unique_ptr entries so find() results survive vector growth. */
    std::vector<std::unique_ptr<FamilyDef>> defs;
};

FamilyRegistry::FamilyRegistry() : impl(std::make_shared<Impl>())
{
    for (auto &def : builtinFamilies())
        impl->defs.push_back(
            std::make_unique<FamilyDef>(std::move(def)));
}

FamilyRegistry &
FamilyRegistry::instance()
{
    static FamilyRegistry registry;
    return registry;
}

void
FamilyRegistry::add(FamilyDef def)
{
    if (!tokenLike(def.name))
        fatal("workload family name '", def.name,
              "' must be non-empty and use only [A-Za-z0-9._-]");
    for (const auto &p : def.params) {
        if (!tokenLike(p.name))
            fatal("family '", def.name, "': parameter name '", p.name,
                  "' must be non-empty and use only [A-Za-z0-9._-]");
        if (p.minValue > p.maxValue ||
            p.defaultValue < p.minValue || p.defaultValue > p.maxValue)
            fatal("family '", def.name, "': parameter '", p.name,
                  "' default ", p.defaultValue, " outside [",
                  p.minValue, ", ", p.maxValue, "]");
    }
    if (!def.generate)
        fatal("family '", def.name, "' has no generator");

    std::lock_guard lock(impl->mu);
    for (const auto &d : impl->defs) {
        if (d->name == def.name)
            fatal("workload family '", def.name,
                  "' already registered");
    }
    impl->defs.push_back(std::make_unique<FamilyDef>(std::move(def)));
}

bool
FamilyRegistry::remove(const std::string &name)
{
    std::lock_guard lock(impl->mu);
    for (auto it = impl->defs.begin(); it != impl->defs.end(); ++it) {
        if ((*it)->name == name) {
            impl->defs.erase(it);
            return true;
        }
    }
    return false;
}

const FamilyDef *
FamilyRegistry::find(const std::string &name) const
{
    std::lock_guard lock(impl->mu);
    for (const auto &d : impl->defs) {
        if (d->name == name)
            return d.get();
    }
    return nullptr;
}

std::vector<std::string>
FamilyRegistry::names() const
{
    std::lock_guard lock(impl->mu);
    std::vector<std::string> out;
    out.reserve(impl->defs.size());
    for (const auto &d : impl->defs)
        out.push_back(d->name);
    return out;
}

const FamilyDef *
findFamily(const std::string &name)
{
    return FamilyRegistry::instance().find(name);
}

std::vector<std::string>
familyNames()
{
    return FamilyRegistry::instance().names();
}

namespace
{

/**
 * Validate @p overrides against @p def's schema — unknown names (the
 * message lists the family's parameters), duplicates and
 * out-of-range values are fatal, @p context naming the offending
 * workload — and fold them over the defaults into one value per
 * parameter. The single resolution path shared by parse() and
 * generate(), so a hand-built WorkloadSpec validates exactly like a
 * parsed string.
 */
std::vector<std::int64_t>
resolveOverrides(
    const FamilyDef &def, const std::string &context,
    const std::vector<std::pair<std::string, std::int64_t>> &overrides)
{
    std::vector<bool> seen(def.params.size(), false);
    std::vector<std::int64_t> values;
    values.reserve(def.params.size());
    for (const auto &p : def.params)
        values.push_back(p.defaultValue);

    for (const auto &[name, value] : overrides) {
        std::size_t idx = def.params.size();
        for (std::size_t i = 0; i < def.params.size(); i++) {
            if (def.params[i].name == name)
                idx = i;
        }
        if (idx == def.params.size()) {
            std::ostringstream known;
            for (std::size_t i = 0; i < def.params.size(); i++)
                known << (i ? ", " : "") << def.params[i].name;
            fatal("workload family '", def.name,
                  "' has no parameter '", name, "' (parameters: ",
                  def.params.empty() ? std::string("none")
                                     : known.str(),
                  ")");
        }
        if (seen[idx])
            fatal("workload '", context, "': duplicate parameter '",
                  name, "'");
        seen[idx] = true;
        const FamilyParamDef &p = def.params[idx];
        if (value < p.minValue || value > p.maxValue)
            fatal("workload '", context, "': ", p.name, "=", value,
                  " outside [", p.minValue, ", ", p.maxValue, "]");
        values[idx] = value;
    }
    return values;
}

} // namespace

WorkloadSpec
WorkloadSpec::parse(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : text) {
        if (c == ':') {
            tokens.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    tokens.push_back(cur);

    const FamilyDef *def = findFamily(tokens.front());
    if (def == nullptr) {
        fatal("unknown workload family '", tokens.front(),
              "'; registered families: ", joinNames(familyNames()));
    }

    std::vector<std::pair<std::string, std::int64_t>> overrides;
    for (std::size_t t = 1; t < tokens.size(); t++) {
        const std::string &token = tokens[t];
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("workload '", text, "': expected param=value, got '",
                  token, "'");
        overrides.emplace_back(token.substr(0, eq),
                               parseValue(text, token.substr(eq + 1)));
    }
    const std::vector<std::int64_t> values =
        resolveOverrides(*def, text, overrides);

    // emit in schema (declaration) order with defaults elided: the
    // canonical form
    WorkloadSpec spec;
    spec.family = def->name;
    for (std::size_t i = 0; i < def->params.size(); i++) {
        if (values[i] != def->params[i].defaultValue)
            spec.params.emplace_back(def->params[i].name, values[i]);
    }
    return spec;
}

namespace
{

/** The canonical string of an already-normalized spec. */
std::string
specText(const WorkloadSpec &spec)
{
    std::ostringstream os;
    os << spec.family;
    for (const auto &[name, value] : spec.params)
        os << ':' << name << '=' << value;
    return os.str();
}

} // namespace

std::string
WorkloadSpec::canonical() const
{
    // normalize through the registry, so hand-built specs (out of
    // order, default-valued or duplicated params) canonicalize the
    // same way parsed ones do
    return specText(parse(specText(*this)));
}

std::string
canonicalWorkload(const std::string &text)
{
    return specText(WorkloadSpec::parse(text));
}

Program
generate(const WorkloadSpec &spec, const WorkloadParams &params)
{
    const FamilyDef *def = findFamily(spec.family);
    if (def == nullptr) {
        fatal("unknown workload family '", spec.family,
              "'; registered families: ", joinNames(familyNames()));
    }
    std::vector<std::int64_t> values =
        resolveOverrides(*def, specText(spec), spec.params);
    return def->generate(params, FamilyParams(*def, std::move(values)));
}

} // namespace siq::workloads
