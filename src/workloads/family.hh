/**
 * @file
 * The workload-family subsystem: parameterized, spec-embeddable
 * workload generators behind one registry (DESIGN.md §10).
 *
 * A *family* is a named generator plus its parameter schema
 * (FamilyDef). A *workload* is a WorkloadSpec — a family name plus a
 * set of integer parameter overrides — with a canonical string form
 *
 *     family[:param=value[:param=value ...]]
 *
 * that is the workload's identity everywhere: the benchmark axis of a
 * SweepSpec, the `benchmark` field of every exported cell, the
 * workload-cache key of the sweep engine, and the checkpoint file
 * names of sharded runs. Canonicalization orders overrides in the
 * family's declaration order and elides values equal to the default,
 * so two spellings of the same workload always compare (and merge)
 * byte-identically. The separator set (':' and '=') is disjoint from
 * CSV/JSON/shell metacharacters, so canonical names survive every
 * export format unquoted.
 *
 * The eleven SPECint2000-profile generators register as parameterless
 * families; the parameterized families stress what a fixed SPECint
 * suite cannot:
 *  - specfp: SPECfp-profile long fp loop nests (swim/art/equake
 *    style) with regular strides and high ILP;
 *  - server: OLTP-style pointer-rich hash-index probes with short
 *    dependent chains, noise branches and a large footprint;
 *  - phased: composable alternation of high-ILP and serial
 *    memory-bound phases — the family that exercises *dynamic* IQ
 *    resizing.
 */

#ifndef SIQ_WORKLOADS_FAMILY_HH
#define SIQ_WORKLOADS_FAMILY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workloads/workloads.hh"

namespace siq::workloads
{

/** Schema of one family parameter (all parameters are integers). */
struct FamilyParamDef
{
    std::string name;
    std::int64_t defaultValue = 0;
    std::int64_t minValue = 0;
    std::int64_t maxValue = 0;
    /** One-line description for `siqsim list`. */
    std::string help;
};

class FamilyParams;

/** One registered workload family. */
struct FamilyDef
{
    /** Registry key and the leading token of every canonical name.
     *  Token-like (alphanumeric plus '-', '_', '.') so names embed in
     *  CSV cells, JSON strings, file names and shell args verbatim. */
    std::string name;
    /** One-line description for listings. */
    std::string summary;
    /** Parameter schema, in declaration (canonical) order. */
    std::vector<FamilyParamDef> params;
    /** Build the program for one resolved parameter set. */
    std::function<Program(const WorkloadParams &, const FamilyParams &)>
        generate;
};

/**
 * Resolved parameter values handed to a family's generator: one value
 * per FamilyParamDef, defaults applied, overrides folded in, ranges
 * validated.
 */
class FamilyParams
{
  public:
    FamilyParams(const FamilyDef &def, std::vector<std::int64_t> values);

    /** Value of the named parameter; fatal on unknown names (a
     *  generator/schema mismatch is a programming error). */
    std::int64_t at(std::string_view name) const;

  private:
    const FamilyDef *def;
    std::vector<std::int64_t> values;
};

/**
 * A serializable workload identity: family plus parameter overrides.
 * `params` holds only non-default values, in the family's declaration
 * order — the invariant parse() establishes and canonical() depends
 * on. Travels inside SweepSpec JSON as {"family": ..., "params":
 * {...}} (sim/report.hh).
 */
struct WorkloadSpec
{
    std::string family;
    std::vector<std::pair<std::string, std::int64_t>> params;

    /**
     * Parse `family[:param=value ...]`. Fatal — with the full list of
     * registered families (or of the family's parameters) in the
     * message — on unknown family names, unknown or duplicate
     * parameters, malformed integers, and out-of-range values.
     */
    static WorkloadSpec parse(const std::string &text);

    /** The canonical string form (see file comment). Fatal when the
     *  spec does not validate against the registry. */
    std::string canonical() const;

    bool operator==(const WorkloadSpec &) const = default;
};

/** Name → FamilyDef table. Thread-safe; built-ins pre-registered. */
class FamilyRegistry
{
  public:
    /** The process-wide registry (created on first use). */
    static FamilyRegistry &instance();

    /** Register a family; fatal on duplicate or non-token names. */
    void add(FamilyDef def);

    /** Remove a registered family. @return true if it existed. */
    bool remove(const std::string &name);

    /** Look up by family name; nullptr when absent. The returned
     *  pointer stays valid until the entry is removed. */
    const FamilyDef *find(const std::string &name) const;

    /** All registered names, in registration order (the eleven paper
     *  benchmarks first, then the parameterized families). */
    std::vector<std::string> names() const;

  private:
    FamilyRegistry();
    struct Impl;
    std::shared_ptr<Impl> impl;
};

/**
 * RAII registration for test-local families (a test seam: the serve
 * tests gate a family's generator to hold a request in flight). The
 * family is generatable and sweepable exactly like a built-in for the
 * scope's lifetime and unregistered on destruction. It exists only in
 * the defining process — a serialized spec naming one cannot run
 * under `siqsim`.
 */
class ScopedFamily
{
  public:
    /** @param def the family to register (fatal on name clash). */
    explicit ScopedFamily(FamilyDef def) : name(def.name)
    {
        FamilyRegistry::instance().add(std::move(def));
    }

    ~ScopedFamily() { FamilyRegistry::instance().remove(name); }

    ScopedFamily(const ScopedFamily &) = delete;
    ScopedFamily &operator=(const ScopedFamily &) = delete;

  private:
    std::string name;
};

/** Registry lookup by family name; nullptr when absent. */
const FamilyDef *findFamily(const std::string &name);

/** All registered family names (paper benchmarks first). */
std::vector<std::string> familyNames();

/** parse(text).canonical() — the one-call validator/normalizer the
 *  engine and CLI apply to every benchmark-axis entry. */
std::string canonicalWorkload(const std::string &text);

/** Generate the program for a parsed workload spec. */
Program generate(const WorkloadSpec &spec, const WorkloadParams &params);

/// @name Parameterized family generators (family.cc registers them).
/// @{
Program genSpecfp(const WorkloadParams &params, const FamilyParams &fp);
Program genServer(const WorkloadParams &params, const FamilyParams &fp);
Program genPhased(const WorkloadParams &params, const FamilyParams &fp);
/// @}

} // namespace siq::workloads

#endif // SIQ_WORKLOADS_FAMILY_HH
