/**
 * @file
 * Table 1: the processor configuration. Prints the configuration the
 * simulator instantiates and validates it against the paper's table.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/core.hh"

int
main()
{
    using namespace siq;
    std::cout << "==== Table 1: processor configuration ====\n\n";

    const CoreConfig cfg;
    Table t({"parameter", "value", "paper"});
    auto row = [&](const std::string &k, const std::string &v,
                   const std::string &p) { t.addRow({k, v, p}); };
    row("fetch/decode/commit width",
        std::to_string(cfg.fetchWidth), "8");
    row("branch predictor",
        std::to_string(cfg.bpred.gshareEntries) + " gshare + " +
            std::to_string(cfg.bpred.bimodalEntries) + " bimodal + " +
            std::to_string(cfg.bpred.selectorEntries) + " selector",
        "2K/2K/1K hybrid");
    row("BTB", std::to_string(cfg.bpred.btbEntries) + " entries, " +
                   std::to_string(cfg.bpred.btbAssoc) + "-way",
        "2048, 4-way");
    row("L1 icache",
        std::to_string(cfg.mem.l1i.sizeBytes / 1024) + "KB " +
            std::to_string(cfg.mem.l1i.assoc) + "-way " +
            std::to_string(cfg.mem.l1i.hitLatency) + "cy",
        "64KB 2-way 1cy");
    row("L1 dcache",
        std::to_string(cfg.mem.l1d.sizeBytes / 1024) + "KB " +
            std::to_string(cfg.mem.l1d.assoc) + "-way " +
            std::to_string(cfg.mem.l1d.hitLatency) + "cy",
        "64KB 4-way 2cy");
    row("unified L2",
        std::to_string(cfg.mem.l2.sizeBytes / 1024) + "KB " +
            std::to_string(cfg.mem.l2.assoc) + "-way " +
            std::to_string(cfg.mem.l2.hitLatency) + "cy hit, " +
            std::to_string(cfg.mem.memLatency) + "cy miss",
        "512KB 8-way 10cy/50cy");
    row("ROB", std::to_string(cfg.robSize), "128");
    row("issue queue", std::to_string(cfg.iq.numEntries) +
                           " entries, banks of " +
                           std::to_string(cfg.iq.bankSize),
        "80 entries");
    row("int regs", std::to_string(cfg.intRegs.numPhys) + " (" +
                        std::to_string(cfg.intRegs.numPhys /
                                       cfg.intRegs.bankSize) +
                        " banks of " +
                        std::to_string(cfg.intRegs.bankSize) + ")",
        "112 (14 banks of 8)");
    row("fp regs", std::to_string(cfg.fpRegs.numPhys), "112");
    row("int FUs",
        std::to_string(
            cfg.fuCounts[static_cast<int>(FuClass::IntAlu)]) +
            " ALU, " +
            std::to_string(
                cfg.fuCounts[static_cast<int>(FuClass::IntMul)]) +
            " Mul",
        "6 ALU (1cy), 3 Mul (3cy)");
    row("fp FUs",
        std::to_string(
            cfg.fuCounts[static_cast<int>(FuClass::FpAlu)]) +
            " ALU, " +
            std::to_string(
                cfg.fuCounts[static_cast<int>(FuClass::FpMulDiv)]) +
            " MulDiv",
        "4 ALU (2cy), 2 MulDiv (4cy/12cy)");
    t.print(std::cout);

    // validate the defaults really are Table 1
    SIQ_ASSERT(cfg.fetchWidth == 8 && cfg.robSize == 128 &&
               cfg.iq.numEntries == 80 &&
               cfg.intRegs.numPhys == 112,
               "defaults drifted from Table 1");
    std::cout << "\nconfiguration matches Table 1\n";
    return 0;
}
