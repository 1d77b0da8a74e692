/**
 * @file
 * Functional-trace unit tests: program content hashing, lazy chunked
 * production, record-by-record equivalence with the interpreter,
 * shared-vs-private trace equivalence of the timing model (also for
 * tagged programs replaying the raw program's trace), the PC
 * table's layout and limits, and the bounded trace cache's
 * accounting and eviction policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "compiler/pass.hh"
#include "cpu/core.hh"
#include "cpu/trace.hh"
#include "ir/exec.hh"
#include "sim/simulator.hh"
#include "sim/technique.hh"
#include "sim/trace_cache.hh"
#include "workloads/builder.hh"
#include "workloads/family.hh"
#include "workloads/workloads.hh"

namespace siq
{
namespace
{

workloads::WorkloadParams
smallParams(std::uint64_t seed = 12345)
{
    workloads::WorkloadParams wp;
    wp.repDivisor = 40; // shrink loop trip counts: tests, not figures
    wp.seed = seed;
    return wp;
}

std::shared_ptr<const Program>
generateShared(const std::string &bench, std::uint64_t seed = 12345)
{
    return std::make_shared<const Program>(
        workloads::generate(bench, smallParams(seed)));
}

TEST(ContentHash, DeterministicAndSeedSensitive)
{
    const auto a = generateShared("gzip");
    const auto b = generateShared("gzip");
    EXPECT_NE(a->contentHash, 0u);
    // separately generated, identical content -> identical hash
    EXPECT_EQ(a->contentHash, b->contentHash);
    EXPECT_NE(a->contentHash, generateShared("gzip", 999)->contentHash);
    EXPECT_NE(a->contentHash, generateShared("mcf")->contentHash);
}

/** A one-procedure program over @p memWords words of memory whose
 *  image is @p image: it loads the first image word and halts. */
Program
imageProgram(std::uint64_t memWords,
             const std::vector<MemImage::Word> &image)
{
    ProgramBuilder b("image", memWords);
    b.newProc("main");
    b.emit(makeLoad(1, 0, 64));
    b.emit(makeHalt());
    for (const auto &[addr, value] : image)
        b.initMem(addr, value);
    return b.build();
}

/** The hash covers every image word, every image address and the
 *  memory size: changing exactly one of them changes it, and a
 *  rebuilt program hashes the same. */
TEST(ContentHash, EveryImageWordAddressAndMemorySizeCounts)
{
    const std::vector<MemImage::Word> image{
        {64, 1}, {65, -2}, {100, 3}, {101, 1ll << 40}};
    const std::uint64_t h = imageProgram(256, image).contentHash;
    EXPECT_EQ(imageProgram(256, image).contentHash, h);
    for (std::size_t i = 0; i < image.size(); i++) {
        auto value = image;
        value[i].second ^= 1;
        EXPECT_NE(imageProgram(256, value).contentHash, h)
            << "value of pair " << i;
        auto addr = image;
        addr[i].first += 1;
        EXPECT_NE(imageProgram(256, addr).contentHash, h)
            << "address of pair " << i;
    }
    EXPECT_NE(imageProgram(257, image).contentHash, h) << "memWords";
    EXPECT_NE(imageProgram(512, image).contentHash, h) << "memWords";
    auto shorter = image;
    shorter.pop_back();
    EXPECT_NE(imageProgram(256, shorter).contentHash, h);
}

TEST(FuncTrace, LazyChunkedProductionEndsAtHalt)
{
    ProgramBuilder b("tiny", 64);
    b.newProc("main");
    b.emit(makeMovImm(1, 7));
    b.emit(makeAddImm(1, 1, 1));
    b.emit(makeHalt());
    auto prog = std::make_shared<const Program>(b.build());

    FuncTrace trace(prog);
    const PcTable &pcs = trace.pcTable();
    EXPECT_EQ(trace.producedRecords(), 0u);
    // before any record: the interpreter's memory and the PC table
    const std::uint64_t fixed = 64 * sizeof(std::int64_t) + pcs.bytes();
    EXPECT_EQ(trace.bytes(), fixed);

    TraceCursor cur(&trace);
    const TraceRecord &r0 = cur.at(0);
    EXPECT_EQ(pcs.at(r0.entry()).si->op, Opcode::MovImm);
    EXPECT_FALSE(r0.taken());
    EXPECT_FALSE(r0.halted());
    // one request produced the whole (short) program: production
    // batches to the chunk end but stops at the halt record
    EXPECT_EQ(trace.producedRecords(), 3u);
    EXPECT_EQ(trace.bytes(),
              fixed + FuncTrace::chunkRecords * sizeof(TraceRecord));

    const TraceRecord &r2 = cur.at(2);
    const PcEntry &e2 = pcs.at(r2.entry());
    EXPECT_TRUE(e2.si->traits().isHalt);
    EXPECT_TRUE(r2.halted());
    EXPECT_EQ(recordNextPc(r2, e2), 0u);
    // records are stable across cursors
    TraceCursor cur2(&trace);
    EXPECT_EQ(&cur2.at(1), &cur.at(1));
}

/** A program that halts part-way into its second chunk: production
 *  stops at the halt record, and no window ever reaches past
 *  producedRecords(), so a chunk's unwritten tail (allocated without
 *  initialisation) is never exposed. */
TEST(FuncTrace, HaltMidChunkExposesOnlyProducedRecords)
{
    ProgramBuilder b("midchunk", 256);
    b.newProc("main");
    b.emit(makeMovImm(1, 0));
    b.emit(makeMovImm(2, 3000));
    auto loop = b.beginLoop(1, 2);
    b.emit(makeLoad(3, 1, 64));
    b.endLoop(loop);
    b.emit(makeHalt());
    const auto prog = std::make_shared<const Program>(b.build());

    ExecContext ref(*prog);
    std::vector<StepResult> steps;
    while (!ref.halted())
        steps.push_back(ref.step());
    const std::uint64_t n = steps.size();
    ASSERT_GT(n, FuncTrace::chunkRecords);
    ASSERT_LT(n, 2 * FuncTrace::chunkRecords);
    ASSERT_NE(n % FuncTrace::chunkRecords, 0u);

    FuncTrace trace(prog);
    const PcTable &pcs = trace.pcTable();
    const FuncTrace::Window first = trace.window(0);
    EXPECT_EQ(trace.producedRecords(), FuncTrace::chunkRecords);
    EXPECT_EQ(first.end, FuncTrace::chunkRecords);

    const FuncTrace::Window last = trace.window(FuncTrace::chunkRecords);
    EXPECT_EQ(trace.producedRecords(), n);
    EXPECT_EQ(last.begin, FuncTrace::chunkRecords);
    EXPECT_EQ(last.end, n);
    EXPECT_EQ(trace.bytes(),
              256 * sizeof(std::int64_t) + pcs.bytes() +
                  2 * FuncTrace::chunkRecords * sizeof(TraceRecord));

    for (std::uint64_t i = 0; i < n; i++) {
        const FuncTrace::Window w = trace.window(i);
        ASSERT_LE(w.begin, i);
        ASSERT_LT(i, w.end);
        ASSERT_LE(w.end, trace.producedRecords());
        const TraceRecord &rec = w.base[i - w.begin];
        ASSERT_EQ(pcs.at(rec.entry()).si, steps[i].inst) << "record " << i;
        ASSERT_EQ(rec.halted(), i + 1 == n) << "record " << i;
    }
}

/** Copies of a program share its one immutable memory image, so
 *  traces of them may be produced on concurrent threads (TSan runs
 *  this suite): each reads the shared image into its own interpreter
 *  memory, and both streams equal a serial production's. */
TEST(FuncTrace, ConcurrentTracesShareOneImage)
{
    const auto raw = generateShared("mcf");
    const auto a = std::make_shared<const Program>(*raw);
    const auto b = std::make_shared<const Program>(*raw);
    ASSERT_EQ(a->memImage, raw->memImage);
    ASSERT_EQ(b->memImage, raw->memImage);

    constexpr std::uint64_t records = 3 * FuncTrace::chunkRecords;
    FuncTrace ta(a);
    FuncTrace tb(b);
    std::thread ra([&] { ta.window(records - 1); });
    std::thread rb([&] { tb.window(records - 1); });
    ra.join();
    rb.join();

    FuncTrace serial(raw);
    TraceCursor cs(&serial);
    TraceCursor ca(&ta);
    TraceCursor cb(&tb);
    for (std::uint64_t i = 0; i < records; i++) {
        const TraceRecord &ref = cs.at(i);
        for (TraceCursor *c : {&ca, &cb}) {
            const TraceRecord &rec = c->at(i);
            // copies hold their own StaticInsts in the same layout:
            // equal entry indices, flags and aux
            ASSERT_EQ(rec.word, ref.word) << "record " << i;
            ASSERT_EQ(rec.aux, ref.aux) << "record " << i;
        }
        ASSERT_EQ(ta.pcTable().at(ca.at(i).entry()).si->pc,
                  serial.pcTable().at(ref.entry()).si->pc)
            << "record " << i;
    }
}

/** Every record, resolved through its PC-table entry, carries
 *  exactly what one interpreter step yields: the instruction, branch
 *  outcome, halt flag, load/store address, the call's RAS push and
 *  the resolved next PC (the entry's successor, or aux for a Ret or
 *  IJump) — for every registered family, up to its halt or a
 *  per-family record budget. */
TEST(FuncTrace, RecordsMatchInterpreterForEveryFamily)
{
    constexpr std::uint64_t budget = 60000;
    for (const auto &family : workloads::familyNames()) {
        const auto prog = generateShared(family);
        FuncTrace trace(prog);
        const PcTable &pcs = trace.pcTable();
        TraceCursor cur(&trace);
        ExecContext ref(*prog);
        std::uint64_t i = 0;
        for (; i < budget && !ref.halted(); i++) {
            const StepResult sr = ref.step();
            const CtrlTargets ct = ctrlTargets(*prog, sr);
            const TraceRecord &rec = cur.at(i);
            const PcEntry &e = pcs.at(rec.entry());
            ASSERT_EQ(e.si, sr.inst) << family << " record " << i;
            ASSERT_EQ(rec.taken(), sr.taken)
                << family << " record " << i;
            ASSERT_EQ(rec.halted(), sr.halted)
                << family << " record " << i;
            ASSERT_EQ(recordNextPc(rec, e), ct.actualNextPc)
                << family << " record " << i;
            if (sr.inst->op == Opcode::Call) {
                ASSERT_EQ(e.rasPushPc, ct.rasPushPc)
                    << family << " record " << i;
            }
            const auto &t = sr.inst->traits();
            const Opcode op = sr.inst->op;
            const std::uint64_t aux =
                t.isLoad || t.isStore ? sr.memAddr
                : op == Opcode::Ret || op == Opcode::IJump
                    ? ct.actualNextPc
                    : 0;
            ASSERT_EQ(rec.aux, aux) << family << " record " << i;
        }
        EXPECT_GT(i, 1000u) << family;
    }
}

/** Reference for PcEntry::wrongPathAddr: splitmix64 of the PC modulo
 *  the memory size. */
std::uint64_t
splitmixAddr(std::uint64_t pc, std::uint64_t memWords)
{
    std::uint64_t z = pc + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z % memWords;
}

/** The predecoded PC table agrees with a brute-force walk of every
 *  registered family's program: each instruction and its successors, and "no instruction" for every other PC up to two
 *  pages past the last one (misaligned, inter-procedure gap, out of
 *  range). */
TEST(PcTable, MatchesBruteForceWalkForEveryFamily)
{
    for (const auto &family : workloads::familyNames()) {
        SCOPED_TRACE(family);
        const auto prog = generateShared(family);
        const FuncTrace trace(prog);
        const PcTable &table = trace.pcTable();

        // first PC reached entering (p, b), through empty blocks
        const auto entryPc = [&](int p, int b) -> std::uint64_t {
            for (; b >= 0; b = prog->procs[p].blocks[b].fallthrough) {
                const BasicBlock &blk = prog->procs[p].blocks[b];
                if (!blk.insts.empty())
                    return blk.insts.front().pc;
            }
            return 0;
        };

        std::map<std::uint64_t, const StaticInst *> byPc;
        for (int p = 0; p < static_cast<int>(prog->procs.size()); p++) {
            const Procedure &proc = prog->procs[p];
            for (int b = 0; b < static_cast<int>(proc.blocks.size());
                 b++) {
                const BasicBlock &blk = proc.blocks[b];
                const int n = static_cast<int>(blk.insts.size());
                for (int i = 0; i < n; i++) {
                    const StaticInst &si = blk.insts[i];
                    byPc[si.pc] = &si;
                    const PcEntry *e = table.find(si.pc);
                    ASSERT_NE(e, nullptr) << "pc " << si.pc;
                    EXPECT_EQ(e->si, &si);
                    EXPECT_EQ(e->seqPc, i + 1 < n
                                            ? blk.insts[i + 1].pc
                                            : entryPc(p, blk.fallthrough));
                    std::uint64_t taken = 0;
                    std::uint64_t push = 0;
                    if (si.traits().isBranch || si.op == Opcode::Jump) {
                        taken = entryPc(p, si.target);
                    } else if (si.op == Opcode::Call) {
                        taken = entryPc(si.target, 0);
                        push = entryPc(p, blk.fallthrough);
                    }
                    EXPECT_EQ(e->takenPc, taken) << "pc " << si.pc;
                    EXPECT_EQ(e->rasPushPc, push) << "pc " << si.pc;
                    EXPECT_EQ(e->wrongPathAddr,
                              splitmixAddr(si.pc, prog->memWords));
                }
            }
        }
        ASSERT_FALSE(byPc.empty());
        EXPECT_EQ(table.size(), byPc.size());

        // every byte address from 0 to two pages past the last
        // instruction resolves to exactly the instruction there
        const std::uint64_t end = byPc.rbegin()->first + 2 * 4096;
        std::uint64_t gapPcs = 0;
        for (std::uint64_t pc = 0; pc < end; pc++) {
            const auto it = byPc.find(pc);
            const PcEntry *e = table.find(pc);
            if (it == byPc.end()) {
                ASSERT_EQ(e, nullptr) << "pc " << pc;
                if (pc % 4 == 0 && pc > byPc.begin()->first &&
                    pc < byPc.rbegin()->first)
                    gapPcs++;
            } else {
                ASSERT_NE(e, nullptr) << "pc " << pc;
                ASSERT_EQ(e->si, it->second) << "pc " << pc;
            }
        }
        if (prog->procs.size() > 1) {
            EXPECT_GT(gapPcs, 0u) << "no inter-procedure gap probed";
        }
        EXPECT_EQ(table.find(~0ull), nullptr);
        EXPECT_EQ(table.find(1ull << 40), nullptr);
    }
}

/** Trace records hold word addresses in 32 bits, so the PC table
 *  (built here alone: no interpreter memory is allocated) refuses a
 *  memory one word larger than 2^32 words and accepts 2^32. */
TEST(PcTable, RefusesMemoryPast32BitWordAddresses)
{
    const auto haltOnly = [](std::uint64_t memWords) {
        ProgramBuilder b("huge", memWords);
        b.newProc("main");
        b.emit(makeHalt());
        return b.build();
    };
    const Program largest = haltOnly(1ull << 32);
    EXPECT_EQ(PcTable(largest).size(), 1u);
    const Program tooLarge = haltOnly((1ull << 32) + 1);
    EXPECT_DEATH({ PcTable table(tooLarge); }, "32-bit addresses");
}

/** A second replayer with a larger budget extends the shared trace
 *  past the first one's frontier (lazy growth: the instruction budget
 *  is not part of the trace identity), and sharing is invisible: a
 *  core behind the frontier, one pushing it, and one on a private
 *  trace produce identical counters, under both front ends. */
TEST(FuncTrace, BudgetsExtendSharedTrace)
{
    const auto prog = generateShared("gzip");
    for (const bool spec : {false, true}) {
        FuncTrace trace(prog);
        CoreConfig cfg;
        cfg.specFrontEnd = spec;

        Core small(*prog, cfg, nullptr, &trace);
        small.run(2000);
        const std::uint64_t frontier = trace.producedRecords();
        ASSERT_GT(frontier, 0u);

        Core big(*prog, cfg, nullptr, &trace);
        big.run(20000);
        EXPECT_GT(trace.producedRecords(), frontier);

        // replays records another core already produced
        Core late(*prog, cfg, nullptr, &trace);
        late.run(20000);

        Core solo(*prog, cfg);
        solo.run(20000);
        for (const Core *shared : {&big, &late}) {
            EXPECT_EQ(solo.stats(), shared->stats()) << "spec=" << spec;
            EXPECT_EQ(solo.iqEvents(), shared->iqEvents())
                << "spec=" << spec;
        }
        if (spec) {
            EXPECT_GT(solo.stats().squashes, 0u);
        }
    }
}

/** Tag annotation keeps the raw instruction stream (equal
 *  contentHash), so an extension or improved cell may replay a trace
 *  the raw program produced. Its core resolves records through its
 *  own program's PcTable, so it still applies its own tags: the
 *  counters equal the same cell over a private trace of the tagged
 *  program, under both front ends, for every family whose annotation
 *  shares the raw hash. */
TEST(FuncTrace, TaggedCellsReplayTheRawProgramsTrace)
{
    int shared = 0;
    for (const auto &name : workloads::familyNames()) {
        const auto raw = generateShared(name);
        for (const char *tech : {"extension", "improved"}) {
            const sim::TechniqueDef &def = *sim::findTechnique(tech);
            sim::RunConfig cfg;
            cfg.tech = def.tag;
            // tags sit at region entries, some run once near the start
            cfg.warmupInsts = 0;
            cfg.measureInsts = 20000;
            Program tagged = *raw;
            compiler::annotate(tagged, *def.compilerConfig(cfg));
            if (tagged.contentHash != raw->contentHash)
                continue;
            shared++;
            for (const bool spec : {false, true}) {
                cfg.core.specFrontEnd = spec;
                FuncTrace rawTrace(raw);
                const auto overRaw =
                    sim::simulateProgram(tagged, def, cfg, &rawTrace);
                const auto own = sim::simulateProgram(tagged, def, cfg);
                EXPECT_GT(overRaw.stats.hintsApplied, 0u)
                    << name << " " << tech << " spec=" << spec;
                EXPECT_EQ(overRaw.stats, own.stats)
                    << name << " " << tech << " spec=" << spec;
                EXPECT_EQ(overRaw.iq, own.iq)
                    << name << " " << tech << " spec=" << spec;
            }
        }
    }
    // every family but bzip2, whose tag schemes both insert a Hint op
    // into an empty block
    EXPECT_EQ(shared, 26);
}

/** A Hint-op insertion moves PCs, so a noop-annotated program handed
 *  the raw program's trace is refused rather than silently simulating
 *  a stream whose records index another layout. */
TEST(FuncTrace, HintOpProgramRefusesTheRawProgramsTrace)
{
    const auto raw = generateShared("gzip");
    const sim::TechniqueDef &def = *sim::findTechnique("noop");
    sim::RunConfig cfg;
    cfg.tech = def.tag;
    Program noop = *raw;
    ASSERT_GT(compiler::annotate(noop, *def.compilerConfig(cfg))
                  .hintNoopsInserted,
              0u);
    FuncTrace rawTrace(raw);
    EXPECT_DEATH({ Core core(noop, cfg.core, nullptr, &rawTrace); },
                 "trace/program content mismatch");
}

TEST(TraceCache, HitAndBuildAccountingExact)
{
    sim::TraceCache cache(512ull << 20);
    const auto gzip = generateShared("gzip");
    const auto gzipAgain = generateShared("gzip");
    const auto mcf = generateShared("mcf");

    const auto t1 = cache.get(gzip);
    // a different Program object with identical content is a hit
    const auto t2 = cache.get(gzipAgain);
    EXPECT_EQ(t1.get(), t2.get());
    const auto t3 = cache.get(mcf);
    EXPECT_NE(t1.get(), t3.get());
    cache.get(mcf);

    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.evicted(), 0u);
}

/** A trace weighs what it holds from construction on: the
 *  interpreter's memory and the PC table count before its first
 *  record, so a cap below one mcf interpreter evicts a trace that
 *  never produced a record once its last handle drops. */
TEST(TraceCache, FreshTraceCountsInterpreterAndPcTable)
{
    const auto mcf = generateShared("mcf");
    const std::uint64_t interpreter = mcf->memWords * sizeof(std::int64_t);
    sim::TraceCache cache(interpreter - 1);
    auto t = cache.get(mcf);
    EXPECT_EQ(t->producedRecords(), 0u);
    EXPECT_GT(t->pcTable().bytes(), 0u);
    EXPECT_EQ(t->bytes(), interpreter + t->pcTable().bytes());
    EXPECT_EQ(cache.residentBytes(), t->bytes());

    // a second handle is a hit; dropping it leaves the entry pinned
    auto again = cache.get(mcf);
    EXPECT_EQ(again.get(), t.get());
    again.reset();
    EXPECT_EQ(cache.evicted(), 0u);

    t.reset();
    EXPECT_EQ(cache.evicted(), 1u);
    EXPECT_EQ(cache.residentBytes(), 0u);
}

TEST(TraceCache, EvictsLruUnreferencedWhenOverCap)
{
    // cap below any trace: every unpinned trace is evicted
    sim::TraceCache cache(1);
    auto t1 = cache.get(generateShared("gzip"));
    TraceCursor(&*t1).at(0); // produce a chunk
    ASSERT_GT(t1->bytes(), 1u);

    // t1 is still referenced: inserting mcf must not evict it
    auto t2 = cache.get(generateShared("mcf"));
    TraceCursor(&*t2).at(0);
    EXPECT_EQ(cache.evicted(), 0u);
    EXPECT_GE(cache.residentBytes(), t1->bytes());

    // dropping a handle re-enforces the cap the moment the entry
    // becomes evictable — traces grow while pinned, so insertion-time
    // enforcement alone would leave the cache over the cap for good
    t1.reset();
    EXPECT_EQ(cache.evicted(), 1u);
    t2.reset();
    EXPECT_EQ(cache.evicted(), 2u);

    auto t3 = cache.get(generateShared("crafty"));
    TraceCursor(&*t3).at(0);
    EXPECT_LE(cache.residentBytes(), t3->bytes());

    // an evicted program rebuilds (a fresh trace, not a stale pointer)
    EXPECT_EQ(cache.builds(), 3u);
    cache.get(generateShared("gzip"));
    EXPECT_EQ(cache.builds(), 4u);

    // once the last handle drops, resident bytes fall under the cap
    t3.reset();
    EXPECT_LE(cache.residentBytes(), 1u);
}

} // namespace
} // namespace siq
