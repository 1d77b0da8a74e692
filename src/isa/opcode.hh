/**
 * @file
 * Opcode set and per-opcode traits for the siqsim RISC ISA.
 *
 * The ISA is deliberately small: just enough register dataflow, control
 * flow, memory access and latency variety to drive the paper's compiler
 * analysis and out-of-order core. Latencies and functional-unit classes
 * follow Table 1 of the paper.
 */

#ifndef SIQ_ISA_OPCODE_HH
#define SIQ_ISA_OPCODE_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace siq
{

/** Functional unit classes (Table 1 of the paper + memory ports). */
enum class FuClass : std::uint8_t
{
    None,     ///< consumes no functional unit (Nop/Hint/Halt)
    IntAlu,   ///< 6 units, 1-cycle
    IntMul,   ///< 3 units, 3-cycle multiply (divide shares them)
    FpAlu,    ///< 4 units, 2-cycle
    FpMulDiv, ///< 2 units, 4-cycle multiply, 12-cycle divide
    MemPort,  ///< load/store ports
    NumClasses
};

/** All instruction opcodes. */
enum class Opcode : std::uint8_t
{
    Nop,
    Hint,    ///< special NOOP carrying max_new_range (stripped at decode)
    MovImm,
    Add,
    AddImm,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Slt,
    FMovImm,
    FAdd,
    FMul,
    FDiv,
    Load,
    Store,
    FLoad,
    FStore,
    Beq,
    Bne,
    Blt,
    Bge,
    Jump,
    IJump,   ///< indirect jump through a per-block target table
    Call,
    Ret,
    Halt,
    NumOpcodes
};

constexpr int numOpcodes = static_cast<int>(Opcode::NumOpcodes);

/** Static properties of one opcode. */
struct OpTraits
{
    std::string_view mnemonic;
    FuClass fu;
    int latency;        ///< execution latency in cycles (cache adds more)
    /** Pipelined units accept a new op every cycle; non-pipelined
     *  ones (divides, as in SimpleScalar) hold their unit for the
     *  full latency. */
    bool pipelined;
    bool writesDst;
    bool readsSrc1;
    bool readsSrc2;
    bool isBranch;      ///< conditional control flow
    bool isJump;        ///< unconditional direct control flow
    bool isIndirect;    ///< target not encoded in the instruction
    bool isCall;
    bool isRet;
    bool isLoad;
    bool isStore;
    bool isFp;          ///< writes/reads the FP register file
    bool isHalt;
};

namespace detail
{

// field order matches OpTraits:
// mnemonic fu latency piped dst s1 s2 br jmp ind call ret ld st fp
// halt
inline constexpr std::array<OpTraits, numOpcodes> traitTable = {{
    {"nop",    FuClass::None,     1, true, false, false, false, false, false,
     false, false, false, false, false, false, false},
    {"hint",   FuClass::None,     1, true, false, false, false, false, false,
     false, false, false, false, false, false, false},
    {"movi",   FuClass::IntAlu,   1, true, true,  false, false, false, false,
     false, false, false, false, false, false, false},
    {"add",    FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"addi",   FuClass::IntAlu,   1, true, true,  true,  false, false, false,
     false, false, false, false, false, false, false},
    {"sub",    FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"mul",    FuClass::IntMul,   3, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"div",    FuClass::IntMul,  12, false, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"and",    FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"or",     FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"xor",    FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"shl",    FuClass::IntAlu,   1, true, true,  true,  false, false, false,
     false, false, false, false, false, false, false},
    {"shr",    FuClass::IntAlu,   1, true, true,  true,  false, false, false,
     false, false, false, false, false, false, false},
    {"slt",    FuClass::IntAlu,   1, true, true,  true,  true,  false, false,
     false, false, false, false, false, false, false},
    {"fmovi",  FuClass::FpAlu,    2, true, true,  false, false, false, false,
     false, false, false, false, false, true,  false},
    {"fadd",   FuClass::FpAlu,    2, true, true,  true,  true,  false, false,
     false, false, false, false, false, true,  false},
    {"fmul",   FuClass::FpMulDiv, 4, true, true,  true,  true,  false, false,
     false, false, false, false, false, true,  false},
    {"fdiv",   FuClass::FpMulDiv, 12, false, true, true,  true,  false, false,
     false, false, false, false, false, true,  false},
    {"ld",     FuClass::MemPort,  1, true, true,  true,  false, false, false,
     false, false, false, true,  false, false, false},
    {"st",     FuClass::MemPort,  1, true, false, true,  true,  false, false,
     false, false, false, false, true,  false, false},
    {"fld",    FuClass::MemPort,  1, true, true,  true,  false, false, false,
     false, false, false, true,  false, true,  false},
    {"fst",    FuClass::MemPort,  1, true, false, true,  true,  false, false,
     false, false, false, false, true,  true,  false},
    {"beq",    FuClass::IntAlu,   1, true, false, true,  true,  true,  false,
     false, false, false, false, false, false, false},
    {"bne",    FuClass::IntAlu,   1, true, false, true,  true,  true,  false,
     false, false, false, false, false, false, false},
    {"blt",    FuClass::IntAlu,   1, true, false, true,  true,  true,  false,
     false, false, false, false, false, false, false},
    {"bge",    FuClass::IntAlu,   1, true, false, true,  true,  true,  false,
     false, false, false, false, false, false, false},
    {"j",      FuClass::IntAlu,   1, true, false, false, false, false, true,
     false, false, false, false, false, false, false},
    {"ijmp",   FuClass::IntAlu,   1, true, false, true,  false, false, true,
     true,  false, false, false, false, false, false},
    {"call",   FuClass::IntAlu,   1, true, false, false, false, false, true,
     false, true,  false, false, false, false, false},
    {"ret",    FuClass::IntAlu,   1, true, false, false, false, false, true,
     true,  false, true,  false, false, false, false},
    {"halt",   FuClass::None,     1, true, false, false, false, false, false,
     false, false, false, false, false, false, true},
}};

/** Panics: @p op is not a valid opcode. */
[[noreturn]] void opcodeOutOfRange(Opcode op);

} // namespace detail

/** Trait lookup; total over all opcodes (inline: every pipeline stage
 *  asks it per instruction). */
inline const OpTraits &
opTraits(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    if (idx >= detail::traitTable.size()) [[unlikely]]
        detail::opcodeOutOfRange(op);
    return detail::traitTable[idx];
}

/** Largest execution latency over all opcodes (cache adds more;
 *  the core's completion wheel sizes its horizon from this). */
int maxOpcodeLatency();

/** True for any instruction that may redirect control flow. */
inline bool
isControl(Opcode op)
{
    const auto &t = opTraits(op);
    return t.isBranch || t.isJump || t.isCall || t.isRet;
}

/** True for loads and stores. */
inline bool
isMem(Opcode op)
{
    const auto &t = opTraits(op);
    return t.isLoad || t.isStore;
}

/** Number of architectural integer registers (r0 is hardwired zero). */
constexpr int numIntArchRegs = 32;
/** Number of architectural floating-point registers. */
constexpr int numFpArchRegs = 32;
/** Unified architectural register index space: int 0..31, fp 32..63. */
constexpr int numArchRegs = numIntArchRegs + numFpArchRegs;
/** First unified index of the FP class. */
constexpr int fpRegBase = numIntArchRegs;
/** Register holding constant zero. */
constexpr int zeroReg = 0;

} // namespace siq

#endif // SIQ_ISA_OPCODE_HH
