/**
 * @file
 * The technique table: the six ways of driving the machine — the
 * paper's three compiler schemes, the two hardware comparators and
 * the do-nothing baseline — each a named entry mapping to the two
 * things a run needs: an optional compiler configuration (how the
 * program is annotated before simulation) and an optional
 * adaptive-resizer factory (the IqLimitController handed to the core).
 *
 * The table is fixed (technique.cc). Knob studies such as hint floors
 * or elision are not extra techniques: they vary the serialized
 * RunConfig fields the factories read (minHint, elideRedundant,
 * core.iq.*), so every sweep is fully described by its spec JSON.
 * simulator.cc's runOne and the sweep engine both resolve techniques
 * here, so serial and threaded execution configure a cell alike.
 */

#ifndef SIQ_SIM_TECHNIQUE_HH
#define SIQ_SIM_TECHNIQUE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/resize.hh"
#include "sim/simulator.hh"

namespace siq::sim
{

/** One technique-table entry. */
struct TechniqueDef
{
    /** Table key; also what RunResult::technique reports. */
    std::string name;
    /** The enum value of the entry (RunResult::tech). */
    Technique tag = Technique::Baseline;
    /** One-line description for listings. */
    std::string summary;
    /**
     * Produce the compiler configuration for a run, or nullopt when
     * the program runs unannotated. Null function == no compiler.
     */
    std::function<std::optional<compiler::CompilerConfig>(
        const RunConfig &)>
        compilerConfig;
    /**
     * Produce the hardware resize controller for a run. Null
     * function (or a factory returning nullptr) == no controller.
     */
    std::function<std::unique_ptr<IqLimitController>(const RunConfig &)>
        controller;
};

/** The table entry for an enum technique. */
const TechniqueDef &techniqueDef(Technique tech);

/** Table lookup by name; nullptr when absent. */
const TechniqueDef *findTechnique(const std::string &name);

/** Map a name back to its enum, if it names a technique. */
std::optional<Technique> techniqueFromName(const std::string &name);

/** Every technique name, in enum order. */
std::vector<std::string> techniqueNames();

} // namespace siq::sim

#endif // SIQ_SIM_TECHNIQUE_HH
