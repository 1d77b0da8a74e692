/**
 * @file
 * Cross-module integration and property tests, parameterized over the
 * full benchmark suite:
 *  - functional outputs are invariant across every technique (the
 *    hints may never change semantics);
 *  - hinted runs never deadlock and never raise occupancy;
 *  - a fuzzer that sprays random tag hints over a program still gets
 *    the right answer (hint safety is unconditional);
 *  - the simulator facade produces sane figures.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ir/exec.hh"
#include "sim/simulator.hh"

namespace siq
{
namespace
{

workloads::WorkloadParams
tiny()
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40;
    return wp;
}

class BenchmarkSuite : public ::testing::TestWithParam<std::string>
{};

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuite,
    ::testing::ValuesIn(workloads::benchmarkNames()),
    [](const auto &info) { return info.param; });

/** What the reference interpreter leaves after natural completion:
 *  the memory image, and how many instructions a core must commit
 *  (every executed one but the hint NOOPs, stripped at dispatch). */
struct Reference
{
    std::vector<std::int64_t> image;
    std::uint64_t committed = 0;
};

Reference
runReference(const Program &prog)
{
    ExecContext ctx(prog);
    Reference ref;
    while (!ctx.halted()) {
        if (ctx.step().inst->op != Opcode::Hint)
            ref.committed++;
    }
    for (std::uint64_t a = 0; a < 64; a++)
        ref.image.push_back(ctx.readMem(a));
    return ref;
}

TEST_P(BenchmarkSuite, TechniquesPreserveFunctionalBehaviour)
{
    const Program plain = workloads::generate(GetParam(), tiny());
    const Reference ref = runReference(plain);

    for (auto tech :
         {sim::Technique::Noop, sim::Technique::Extension,
          sim::Technique::Improved}) {
        Program prog = workloads::generate(GetParam(), tiny());
        sim::RunConfig rc;
        const auto cc = sim::compilerConfigFor(tech, rc);
        ASSERT_TRUE(cc.has_value());
        compiler::annotate(prog, *cc);

        const Reference hinted = runReference(prog);
        EXPECT_EQ(hinted.image, ref.image)
            << GetParam() << "/" << sim::techniqueName(tech);
        Core core(prog, CoreConfig{});
        core.run(1u << 24);
        ASSERT_TRUE(core.done())
            << GetParam() << " did not finish under "
            << sim::techniqueName(tech);
        EXPECT_EQ(core.stats().committed, hinted.committed)
            << GetParam() << "/" << sim::techniqueName(tech);
    }
}

TEST_P(BenchmarkSuite, HintsNeverRaiseOccupancy)
{
    const Program plain = workloads::generate(GetParam(), tiny());
    Core base(plain, CoreConfig{});
    base.run(1u << 24);
    const double baseOcc =
        static_cast<double>(base.iqEvents().occupancySum) /
        static_cast<double>(base.iqEvents().cycles);

    Program hinted = workloads::generate(GetParam(), tiny());
    sim::RunConfig rc;
    compiler::annotate(
        hinted, *sim::compilerConfigFor(sim::Technique::Noop, rc));
    Core noop(hinted, CoreConfig{});
    noop.run(1u << 24);
    const double noopOcc =
        static_cast<double>(noop.iqEvents().occupancySum) /
        static_cast<double>(noop.iqEvents().cycles);
    EXPECT_LE(noopOcc, baseOcc * 1.02 + 0.5) << GetParam();
}

TEST_P(BenchmarkSuite, AdaptiveControllersRunToCompletion)
{
    for (auto tech :
         {sim::Technique::Abella, sim::Technique::Folegnani}) {
        sim::RunConfig cfg;
        cfg.tech = tech;
        cfg.workload = tiny();
        cfg.warmupInsts = 2000;
        cfg.measureInsts = 40000;
        const auto result = sim::runOne(GetParam(), cfg);
        EXPECT_GT(result.ipc(), 0.01) << sim::techniqueName(tech);
        EXPECT_LE(result.ipc(), 8.0);
    }
}

TEST_P(BenchmarkSuite, RandomHintFuzzIsSafe)
{
    // spraying arbitrary tag hints over every instruction must never
    // deadlock the machine or change results: the new_head mechanism
    // only ever throttles dispatch
    Program prog = workloads::generate(GetParam(), tiny());
    const Reference ref = runReference(prog);

    Rng rng(0xF00D + prog.instCount());
    for (auto &proc : prog.procs) {
        for (auto &block : proc.blocks) {
            for (auto &inst : block.insts) {
                if (rng.chance(0.15)) {
                    inst.tagHint = static_cast<std::uint16_t>(
                        rng.range(1, 80));
                }
            }
        }
    }
    prog.finalize();
    Core core(prog, CoreConfig{});
    core.run(1u << 24);
    ASSERT_TRUE(core.done()) << GetParam() << " fuzz deadlocked";
    // tag hints ride on ordinary instructions: the stream is unchanged
    const Reference fuzzed = runReference(prog);
    EXPECT_EQ(fuzzed.image, ref.image) << GetParam();
    EXPECT_EQ(core.stats().committed, ref.committed) << GetParam();
}

TEST_P(BenchmarkSuite, FacadeProducesCoherentResults)
{
    sim::RunConfig cfg;
    cfg.workload = tiny();
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 30000;
    cfg.tech = sim::Technique::Baseline;
    const auto base = sim::runOne(GetParam(), cfg);
    cfg.tech = sim::Technique::Noop;
    const auto noop = sim::runOne(GetParam(), cfg);

    EXPECT_GT(base.ipc(), 0.05);
    EXPECT_GE(noop.stats.hintsApplied, 0u);
    EXPECT_GE(base.avgIqOccupancy(), noop.avgIqOccupancy() - 1.0);
    EXPECT_GE(noop.iqBanksOffFraction(),
              base.iqBanksOffFraction() - 0.02);

    const auto cmp = sim::comparePower(base, noop);
    EXPECT_GE(cmp.iqDynamicSaving, -0.05);
    EXPECT_LE(cmp.iqDynamicSaving, 1.0);
    EXPECT_GE(cmp.iqStaticSaving, -0.05);
    EXPECT_GE(cmp.nonEmptySaving, 0.0);
}

/** Sweep structural parameters; results must stay functional. */
struct SweepConfig
{
    int iqSize;
    int bankSize;
    int width;
};

class StructuralSweep
    : public ::testing::TestWithParam<SweepConfig>
{};

INSTANTIATE_TEST_SUITE_P(
    Geometry, StructuralSweep,
    ::testing::Values(SweepConfig{16, 4, 4}, SweepConfig{32, 8, 8},
                      SweepConfig{64, 8, 4}, SweepConfig{80, 10, 8},
                      SweepConfig{80, 8, 8}, SweepConfig{128, 16, 8}),
    [](const auto &info) {
        return "iq" + std::to_string(info.param.iqSize) + "bank" +
               std::to_string(info.param.bankSize) + "w" +
               std::to_string(info.param.width);
    });

TEST_P(StructuralSweep, GzipFunctionalUnderGeometry)
{
    const auto &p = GetParam();
    CoreConfig cfg;
    cfg.iq.numEntries = p.iqSize;
    cfg.iq.bankSize = p.bankSize;
    cfg.fetchWidth = cfg.dispatchWidth = cfg.issueWidth =
        cfg.commitWidth = p.width;

    const Program prog = workloads::generate("gzip", tiny());
    Core core(prog, cfg);
    core.run(1u << 24);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.stats().committed, runReference(prog).committed);
}

} // namespace
} // namespace siq
