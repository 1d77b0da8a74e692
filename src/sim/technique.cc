#include "sim/technique.hh"

#include <array>

namespace siq::sim
{

namespace
{

/** Shared machine-mirror setup for every compiler scheme. */
compiler::CompilerConfig
baseCompilerConfig(const RunConfig &cfg)
{
    compiler::CompilerConfig cc;
    cc.machine.issueWidth = cfg.core.issueWidth;
    cc.machine.iqSize = cfg.core.iq.numEntries;
    cc.machine.fuCounts = cfg.core.fuCounts;
    cc.machine.l1dHitLatency = cfg.core.mem.l1d.hitLatency;
    cc.minHint = cfg.minHint;
    cc.elideRedundant = cfg.elideRedundant;
    cc.unrollFactor = cfg.unrollFactor;
    return cc;
}

/** A compiler-scheme entry's factory. */
std::function<std::optional<compiler::CompilerConfig>(const RunConfig &)>
hintScheme(compiler::HintScheme scheme, bool interprocFu)
{
    return [scheme, interprocFu](const RunConfig &cfg) {
        auto cc = baseCompilerConfig(cfg);
        cc.scheme = scheme;
        cc.interprocFu = interprocFu;
        return std::optional(cc);
    };
}

/** The table, indexed by Technique. */
const std::array<TechniqueDef, 6> &
table()
{
    static const std::array<TechniqueDef, 6> defs = {{
        {"baseline", Technique::Baseline,
         "fixed 80-entry IQ, no resizing", nullptr, nullptr},
        {"noop", Technique::Noop,
         "compiler hints via special NOOPs (paper §5.2)",
         hintScheme(compiler::HintScheme::Noop, false), nullptr},
        {"extension", Technique::Extension,
         "compiler hints via instruction tags (paper §5.3)",
         hintScheme(compiler::HintScheme::Tag, false), nullptr},
        {"improved", Technique::Improved,
         "Extension + inter-procedural FU analysis (paper §5.3)",
         hintScheme(compiler::HintScheme::Tag, true), nullptr},
        {"abella", Technique::Abella,
         "hardware adaptive IqRob64 comparator", nullptr,
         [](const RunConfig &cfg) -> std::unique_ptr<IqLimitController> {
             AbellaConfig ac = cfg.abella;
             ac.iqSize = cfg.core.iq.numEntries;
             ac.robSize = cfg.core.robSize;
             return std::make_unique<AbellaResizer>(ac);
         }},
        {"folegnani", Technique::Folegnani,
         "hardware adaptive resizer (ablation A4)", nullptr,
         [](const RunConfig &cfg) -> std::unique_ptr<IqLimitController> {
             FolegnaniConfig fc = cfg.folegnani;
             fc.iqSize = cfg.core.iq.numEntries;
             return std::make_unique<FolegnaniResizer>(fc);
         }},
    }};
    return defs;
}

} // namespace

const TechniqueDef &
techniqueDef(Technique tech)
{
    return table()[static_cast<std::size_t>(tech)];
}

const TechniqueDef *
findTechnique(const std::string &name)
{
    for (const auto &def : table()) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

std::optional<Technique>
techniqueFromName(const std::string &name)
{
    const TechniqueDef *def = findTechnique(name);
    if (def == nullptr)
        return std::nullopt;
    return def->tag;
}

std::vector<std::string>
techniqueNames()
{
    std::vector<std::string> out;
    for (const auto &def : table())
        out.push_back(def.name);
    return out;
}

} // namespace siq::sim
