// The TRC instruction set — a TriCore-flavoured 32-bit load/store ISA.
//
// The real TriCore 1.3.1 ISA is proprietary and far larger than the
// methodology needs. TRC keeps the properties the paper's profiling and
// optimization methodology actually observes:
//   * split data (d0..d15) / address (a0..a15) register files, which feed
//     the integer (IP) and load/store (LS) pipelines of the multi-issue
//     core — the basis of "up to 3 instructions within a clock cycle",
//   * a zero-overhead LOOP instruction (the third, loop pipeline),
//   * memory-mapped peripherals and distinct cached/non-cached flash
//     address aliases,
//   * priority-driven interrupt entry with a vector table (BIV).
//
// Encoding: fixed 32-bit words.
//   [31:24] opcode   [23:20] rd   [19:16] ra   [15:0] imm16
// Register-register ops carry rb in imm16[3:0]. Branch displacements are
// signed imm16 counted in 32-bit words relative to the *next* instruction.
#pragma once

#include <array>
#include <cassert>
#include <optional>
#include <string>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::isa {

enum class Opcode : u8 {
  // System / control (issue alone, SYS pipe).
  kNop = 0,
  kHalt,   // stop the core (simulation end marker)
  kWfi,    // wait for interrupt
  kEi,     // set ICR.IE
  kDi,     // clear ICR.IE
  kRfe,    // return from exception/interrupt
  kMfcr,   // d[rd] = CR[imm16]
  kMtcr,   // CR[imm16] = d[ra]
  kDebug,  // software breakpoint / MCDS software trigger strobe

  // Integer pipeline (IP): data-register ALU.
  kAdd,   // d[rd] = d[ra] + d[rb]
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,   // d[rd] = d[ra] << (d[rb] & 31)
  kShr,   // logical
  kSar,   // arithmetic
  kMul,   // 32x32 -> low 32, 2-cycle result latency
  kMac,   // d[rd] += d[ra] * d[rb], 2-cycle result latency
  kDiv,   // signed divide, multi-cycle
  kMin,
  kMax,
  kAbs,   // d[rd] = |d[ra]|
  kAddi,  // d[rd] = d[ra] + sext(imm16)
  kAndi,  // zero-extended imm16
  kOri,
  kXori,
  kShli,  // shift by imm16[4:0]
  kShri,
  kSari,
  kMovd,  // d[rd] = sext(imm16)
  kMovh,  // d[rd] = imm16 << 16
  kMovDA, // d[rd] = a[ra]           (cross-file move, IP pipe)

  // Load/store pipeline (LS): address-register ops and memory.
  kMovAD,  // a[rd] = d[ra]
  kMovA,   // a[rd] = a[ra]
  kMovha,  // a[rd] = imm16 << 16
  kLea,    // a[rd] = a[ra] + sext(imm16)
  kAdda,   // a[rd] = a[ra] + a[rb]
  kLdW,    // d[rd] = mem32[a[ra] + sext(imm16)]
  kLdH,    // sign-extended halfword
  kLdB,    // sign-extended byte
  kLdA,    // a[rd] = mem32[a[ra] + sext(imm16)]
  kStW,    // mem32[a[ra] + sext(imm16)] = d[rd]
  kStH,
  kStB,
  kStA,    // mem32[a[ra] + sext(imm16)] = a[rd]

  // Loop/branch pipeline (LP).
  kJ,     // PC += disp
  kJi,    // PC = a[ra]
  kCall,  // a11 = return address; PC += disp
  kCalli, // a11 = return address; PC = a[ra]
  kRet,   // PC = a11
  kJeq,   // if d[rd] == d[ra]: PC += disp
  kJne,
  kJlt,   // signed
  kJge,   // signed
  kJltu,
  kJgeu,
  kJz,    // if d[rd] == 0
  kJnz,
  kLoop,  // if --a[rd] != 0: PC += disp (zero-overhead after 1st iteration)

  kOpcodeCount,
};

inline constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::kOpcodeCount);
inline constexpr unsigned kInstrBytes = 4;

/// Which core pipeline an instruction issues to. The TC core issues at
/// most one instruction per pipe per cycle (IP + LS + LP dual/triple
/// issue); SYS instructions issue alone.
enum class Pipe : u8 { kIp, kLs, kLp, kSys };

/// Decoded instruction.
struct Instr {
  Opcode opcode = Opcode::kNop;
  u8 rd = 0;    // destination / first source for stores & compares
  u8 ra = 0;    // base / source
  u8 rb = 0;    // second source (register-register forms)
  i32 imm = 0;  // sign- or zero-extended as the opcode requires

  bool operator==(const Instr&) const = default;
};

/// Static properties of an opcode, indexed once at decode.
struct OpInfo {
  const char* mnemonic;
  Pipe pipe;
  bool is_load;
  bool is_store;
  bool is_branch;       // any control transfer
  bool is_cond_branch;  // conditional (includes LOOP)
  bool uses_rb;         // register-register form (rb lives in imm[3:0])
  u8 result_latency;    // cycles until the result register is forwardable
};

namespace detail {

constexpr OpInfo make_op(const char* mnemonic, Pipe pipe, bool load = false,
                         bool store = false, bool branch = false,
                         bool cond = false, bool uses_rb = false,
                         u8 latency = 1) {
  return OpInfo{mnemonic, pipe, load, store, branch, cond, uses_rb, latency};
}

// Table order must match the Opcode enum exactly; checked below.
inline constexpr std::array<OpInfo, kNumOpcodes> kOpTable = {{
    make_op("nop", Pipe::kSys),
    make_op("halt", Pipe::kSys),
    make_op("wfi", Pipe::kSys),
    make_op("ei", Pipe::kSys),
    make_op("di", Pipe::kSys),
    make_op("rfe", Pipe::kSys, false, false, /*branch=*/true),
    make_op("mfcr", Pipe::kSys),
    make_op("mtcr", Pipe::kSys),
    make_op("debug", Pipe::kSys),

    make_op("add", Pipe::kIp, false, false, false, false, true),
    make_op("sub", Pipe::kIp, false, false, false, false, true),
    make_op("and", Pipe::kIp, false, false, false, false, true),
    make_op("or", Pipe::kIp, false, false, false, false, true),
    make_op("xor", Pipe::kIp, false, false, false, false, true),
    make_op("shl", Pipe::kIp, false, false, false, false, true),
    make_op("shr", Pipe::kIp, false, false, false, false, true),
    make_op("sar", Pipe::kIp, false, false, false, false, true),
    make_op("mul", Pipe::kIp, false, false, false, false, true, 2),
    make_op("mac", Pipe::kIp, false, false, false, false, true, 2),
    make_op("div", Pipe::kIp, false, false, false, false, true, 8),
    make_op("min", Pipe::kIp, false, false, false, false, true),
    make_op("max", Pipe::kIp, false, false, false, false, true),
    make_op("abs", Pipe::kIp),
    make_op("addi", Pipe::kIp),
    make_op("andi", Pipe::kIp),
    make_op("ori", Pipe::kIp),
    make_op("xori", Pipe::kIp),
    make_op("shli", Pipe::kIp),
    make_op("shri", Pipe::kIp),
    make_op("sari", Pipe::kIp),
    make_op("movd", Pipe::kIp),
    make_op("movh", Pipe::kIp),
    make_op("mov.da", Pipe::kIp),

    make_op("mov.ad", Pipe::kLs),
    make_op("mov.a", Pipe::kLs),
    make_op("movha", Pipe::kLs),
    make_op("lea", Pipe::kLs),
    make_op("adda", Pipe::kLs, false, false, false, false, true),
    make_op("ld.w", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.h", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.b", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.a", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("st.w", Pipe::kLs, false, /*store=*/true),
    make_op("st.h", Pipe::kLs, false, /*store=*/true),
    make_op("st.b", Pipe::kLs, false, /*store=*/true),
    make_op("st.a", Pipe::kLs, false, /*store=*/true),

    make_op("j", Pipe::kLp, false, false, true),
    make_op("ji", Pipe::kLp, false, false, true),
    make_op("call", Pipe::kLp, false, false, true),
    make_op("calli", Pipe::kLp, false, false, true),
    make_op("ret", Pipe::kLp, false, false, true),
    make_op("jeq", Pipe::kLp, false, false, true, true),
    make_op("jne", Pipe::kLp, false, false, true, true),
    make_op("jlt", Pipe::kLp, false, false, true, true),
    make_op("jge", Pipe::kLp, false, false, true, true),
    make_op("jltu", Pipe::kLp, false, false, true, true),
    make_op("jgeu", Pipe::kLp, false, false, true, true),
    make_op("jz", Pipe::kLp, false, false, true, true),
    make_op("jnz", Pipe::kLp, false, false, true, true),
    make_op("loop", Pipe::kLp, false, false, true, true),
}};

static_assert(kOpTable.size() == kNumOpcodes);

}  // namespace detail

constexpr const OpInfo& op_info(Opcode op) {
  const auto index = static_cast<unsigned>(op);
  assert(index < kNumOpcodes);
  return detail::kOpTable[index];
}

/// Encode to the 32-bit instruction word.
u32 encode(const Instr& instr);

/// Decode a 32-bit word. Unknown opcodes decode to an error.
Result<Instr> decode(u32 word);

/// decode() without the error message: nullopt for unknown opcodes. The
/// execution path (isa/semantics.hpp, decode_or_halt) uses this form.
constexpr std::optional<Instr> try_decode(u32 word) {
  const u32 op_field = bits(word, 24, 8);
  if (op_field >= kNumOpcodes) return std::nullopt;
  Instr instr;
  instr.opcode = static_cast<Opcode>(op_field);
  instr.rd = static_cast<u8>(bits(word, 20, 4));
  instr.ra = static_cast<u8>(bits(word, 16, 4));
  if (op_info(instr.opcode).uses_rb) {
    instr.rb = static_cast<u8>(bits(word, 0, 4));
  } else {
    // Immediates are stored sign-extended; opcodes that need zero
    // extension (andi/ori/xori) mask at execute time.
    instr.imm = sign_extend(bits(word, 0, 16), 16);
  }
  return instr;
}

/// Disassemble for logs and trace dumps, e.g. "add d1, d2, d3".
std::string format_instr(const Instr& instr);

/// Look up an opcode by mnemonic ("ld.w", "jeq", ...).
std::optional<Opcode> opcode_from_mnemonic(const std::string& mnemonic);

}  // namespace audo::isa
