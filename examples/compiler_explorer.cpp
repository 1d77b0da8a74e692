/**
 * @file
 * Compiler explorer: dump the paper's analysis products for one
 * workload — per procedure: the natural loops, the CDS equations'
 * entries and the unrolled minimal range, per-block DAG needs and the
 * final hint values, plus the inserted-hint summary for every
 * technique that carries a compiler configuration (the three hint
 * schemes).
 *
 * Usage: compiler_explorer [benchmark] [scale]
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "compiler/pass.hh"
#include "sim/technique.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace siq;
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const int scale = argc > 2 ? std::atoi(argv[2]) : 1;

    workloads::WorkloadParams wp;
    wp.scale = scale;
    Program prog = workloads::generate(bench, wp);

    compiler::CompilerConfig cc;
    std::cout << "benchmark '" << bench << "': "
              << prog.procs.size() << " procedures, "
              << prog.instCount() << " static instructions\n\n";

    for (const auto &proc : prog.procs) {
        const auto pa =
            compiler::analyzeProcedure(prog, proc.id, cc);
        std::cout << "procedure " << proc.name << " ("
                  << proc.blocks.size() << " blocks"
                  << (proc.isLibrary ? ", library" : "") << ")\n";
        for (std::size_t l = 0; l < pa.loops.size(); l++) {
            const auto &loop = pa.loops[l];
            const auto &lr = pa.loopResults[l];
            std::cout << "  loop@b" << loop.header << " depth "
                      << loop.depth << ": entries " << lr.entries
                      << " (cds " << lr.cdsEntries << ", unrolled "
                      << lr.unrolledEntries << ", cds-found "
                      << (lr.hadCds ? "yes" : "no") << ")\n";
        }
        std::cout << "  block values:";
        for (std::size_t b = 0; b < pa.blockValue.size(); b++) {
            std::cout << " b" << b << "="
                      << pa.blockValue[b]
                      << (pa.innermostLoop[b] >= 0 ? "L" : "");
        }
        std::cout << "\n";
    }

    std::cout << "\nhint insertion summary (every registered "
                 "technique with a compiler config):\n";
    Table t({"technique", "noops", "tags", "elided", "seconds"});
    sim::RunConfig rc;
    for (const auto &name : sim::techniqueNames()) {
        const sim::TechniqueDef *def = sim::findTechnique(name);
        if (def == nullptr || !def->compilerConfig)
            continue;
        const auto cfg = def->compilerConfig(rc);
        if (!cfg)
            continue;
        Program copy = workloads::generate(bench, wp);
        const auto stats = compiler::annotate(copy, *cfg);
        t.addRow({name, std::to_string(stats.hintNoopsInserted),
                  std::to_string(stats.tagsApplied),
                  std::to_string(stats.hintsElided),
                  Table::fmt(stats.seconds, 3)});
    }
    t.print(std::cout);
    return 0;
}
