// TRC instruction semantics — the one definition both execution tiers
// dispatch into (DESIGN.md, "Execution tiers").
//
// The accurate stepper (Cpu::execute) and the superblock commit table
// (cpu_fast.cpp) differ only in scheduling and in when they bail; what an
// opcode reads, computes and writes is defined here once:
//   * decode_or_halt     — the fetch rule: undecodable words execute as HALT;
//   * reg_operands       — the operand table: source and destination
//                          registers behind the scoreboard checks;
//   * result             — the value every register-writing IP/LS/LP opcode
//                          produces (ALU, moves, address arithmetic, the
//                          call link and the loop counter);
//   * branch_taken / branch_target — control transfers;
//   * effective_address, access_bytes, extend_loaded, store_value — the
//                          data side of loads and stores.
// SYS-pipe ops (HALT, WFI, RFE, MFCR, ...) touch core control state only
// the stepper models and stay in Cpu::execute.
//
// Everything is header-only and force-inlined so the commit table, which
// instantiates one function per opcode, folds each switch to its case.
#pragma once

#include <array>

#include "isa/isa.hpp"

namespace audo::isa {

#define TRC_SEMANTICS_INLINE [[gnu::always_inline]] inline constexpr

/// What the core executes when a fetched word is garbage (unknown opcode
/// or an errored instruction fetch): HALT, so executing garbage stops
/// the core.
inline constexpr Instr kUndecodable{.opcode = Opcode::kHalt};

/// Decode for execution: never fails, undecodable words become
/// kUndecodable.
constexpr Instr decode_or_halt(u32 word) {
  return try_decode(word).value_or(kUndecodable);
}

/// Register operands of one instruction. Each entry names one register:
/// bit 7 selects the address file, the low bits the index; kNoReg ends
/// the (at most 3-entry) source list or marks "no destination".
struct RegOperands {
  static constexpr u8 kNoReg = 0xFF;
  static constexpr u8 kAddrFile = 0x80;
  std::array<u8, 3> src{kNoReg, kNoReg, kNoReg};
  u8 dest = kNoReg;
};

constexpr u8 data_reg(u8 idx) { return idx & 0xF; }
constexpr u8 addr_reg(u8 idx) { return RegOperands::kAddrFile | (idx & 0xF); }

/// The operand table: which registers `in` reads (the scoreboard waits
/// on these) and which one it writes.
TRC_SEMANTICS_INLINE RegOperands reg_operands(const Instr& in) {
  RegOperands r;
  unsigned n = 0;
  const auto src = [&](u8 reg) { r.src[n++] = reg; };
  using enum Opcode;
  switch (in.opcode) {
    case kMac:
      src(data_reg(in.ra));
      src(data_reg(in.rb));
      src(data_reg(in.rd));  // the accumulator is a source
      r.dest = data_reg(in.rd);
      break;
    case kAdd: case kSub: case kAnd: case kOr: case kXor: case kShl:
    case kShr: case kSar: case kMul: case kDiv: case kMin: case kMax:
      src(data_reg(in.ra));
      src(data_reg(in.rb));
      r.dest = data_reg(in.rd);
      break;
    case kAbs: case kAddi: case kAndi: case kOri: case kXori: case kShli:
    case kShri: case kSari:
      src(data_reg(in.ra));
      r.dest = data_reg(in.rd);
      break;
    case kMovd: case kMovh: case kMfcr:
      r.dest = data_reg(in.rd);
      break;
    case kMovDA:
      src(addr_reg(in.ra));
      r.dest = data_reg(in.rd);
      break;
    case kMovAD:
      src(data_reg(in.ra));
      r.dest = addr_reg(in.rd);
      break;
    case kMovA: case kLea:
      src(addr_reg(in.ra));
      r.dest = addr_reg(in.rd);
      break;
    case kMovha:
      r.dest = addr_reg(in.rd);
      break;
    case kAdda:
      src(addr_reg(in.ra));
      src(addr_reg(in.rb));
      r.dest = addr_reg(in.rd);
      break;
    case kMtcr:
      src(data_reg(in.ra));
      break;
    case kLdW: case kLdH: case kLdB:
      src(addr_reg(in.ra));
      r.dest = data_reg(in.rd);
      break;
    case kLdA:
      src(addr_reg(in.ra));
      r.dest = addr_reg(in.rd);
      break;
    case kStW: case kStH: case kStB:
      src(data_reg(in.rd));  // value
      src(addr_reg(in.ra));  // base
      break;
    case kStA:
      src(addr_reg(in.rd));
      src(addr_reg(in.ra));
      break;
    case kJi:
      src(addr_reg(in.ra));
      break;
    case kCalli:
      src(addr_reg(in.ra));
      r.dest = addr_reg(11);
      break;
    case kCall:
      r.dest = addr_reg(11);
      break;
    case kRet:
      src(addr_reg(11));
      break;
    case kJeq: case kJne: case kJlt: case kJge: case kJltu: case kJgeu:
      src(data_reg(in.rd));
      src(data_reg(in.ra));
      break;
    case kJz: case kJnz:
      src(data_reg(in.rd));
      break;
    case kLoop:
      src(addr_reg(in.rd));
      r.dest = addr_reg(in.rd);
      break;
    default:
      break;
  }
  return r;
}

/// Register-file view of the core at issue of the instruction at `pc`.
struct Operands {
  const u32* d;  // data registers d0..d15
  const u32* a;  // address registers a0..a15
  const Instr& in;
  Addr pc;
};

/// The value a register-writing IP, LS (non-memory) or LP opcode puts in
/// its reg_operands() destination. Opcodes without one return 0.
TRC_SEMANTICS_INLINE u32 result(Opcode op, const Operands& o) {
  const u32* d = o.d;
  const u32* a = o.a;
  const Instr& in = o.in;
  const u32 imm = static_cast<u32>(in.imm);
  using enum Opcode;
  switch (op) {
    case kAdd: return d[in.ra] + d[in.rb];
    case kSub: return d[in.ra] - d[in.rb];
    case kAnd: return d[in.ra] & d[in.rb];
    case kOr: return d[in.ra] | d[in.rb];
    case kXor: return d[in.ra] ^ d[in.rb];
    case kShl: return d[in.ra] << (d[in.rb] & 31);
    case kShr: return d[in.ra] >> (d[in.rb] & 31);
    case kSar:
      return static_cast<u32>(static_cast<i32>(d[in.ra]) >> (d[in.rb] & 31));
    case kMul: return d[in.ra] * d[in.rb];
    case kMac: return d[in.rd] + d[in.ra] * d[in.rb];
    case kDiv: {
      // Hardware-defined corner cases: /0 -> all ones; INT_MIN/-1 wraps.
      const i32 den = static_cast<i32>(d[in.rb]);
      if (den == 0) return 0xFFFFFFFF;
      if (den == -1) return 0u - d[in.ra];
      return static_cast<u32>(static_cast<i32>(d[in.ra]) / den);
    }
    case kMin:
      return static_cast<i32>(d[in.ra]) < static_cast<i32>(d[in.rb]) ? d[in.ra]
                                                                     : d[in.rb];
    case kMax:
      return static_cast<i32>(d[in.ra]) > static_cast<i32>(d[in.rb]) ? d[in.ra]
                                                                     : d[in.rb];
    case kAbs: {
      // Negated in unsigned arithmetic: |INT_MIN| wraps to 0x80000000.
      const u32 v = d[in.ra];
      return static_cast<i32>(v) < 0 ? 0u - v : v;
    }
    case kAddi: return d[in.ra] + imm;
    case kAndi: return d[in.ra] & (imm & 0xFFFF);  // zero-extended
    case kOri: return d[in.ra] | (imm & 0xFFFF);
    case kXori: return d[in.ra] ^ (imm & 0xFFFF);
    case kShli: return d[in.ra] << (in.imm & 31);
    case kShri: return d[in.ra] >> (in.imm & 31);
    case kSari:
      return static_cast<u32>(static_cast<i32>(d[in.ra]) >> (in.imm & 31));
    case kMovd: return imm;
    case kMovh: return (imm & 0xFFFF) << 16;
    case kMovDA: return a[in.ra];

    case kMovAD: return d[in.ra];
    case kMovA: return a[in.ra];
    case kMovha: return (imm & 0xFFFF) << 16;
    case kLea: return a[in.ra] + imm;
    case kAdda: return a[in.ra] + a[in.rb];

    case kCall: case kCalli: return o.pc + kInstrBytes;  // link into a11
    case kLoop: return a[in.rd] - 1;                       // loop counter
    default: return 0;
  }
}

/// Does the control transfer `op` redirect, judged on the registers
/// *before* its own result is written? Unconditional transfers: true.
TRC_SEMANTICS_INLINE bool branch_taken(Opcode op, const Operands& o) {
  const u32* d = o.d;
  const Instr& in = o.in;
  using enum Opcode;
  switch (op) {
    case kJeq: return d[in.rd] == d[in.ra];
    case kJne: return d[in.rd] != d[in.ra];
    case kJlt: return static_cast<i32>(d[in.rd]) < static_cast<i32>(d[in.ra]);
    case kJge: return static_cast<i32>(d[in.rd]) >= static_cast<i32>(d[in.ra]);
    case kJltu: return d[in.rd] < d[in.ra];
    case kJgeu: return d[in.rd] >= d[in.ra];
    case kJz: return d[in.rd] == 0;
    case kJnz: return d[in.rd] != 0;
    case kLoop: return o.a[in.rd] - 1 != 0;  // decremented counter
    default: return true;
  }
}

/// Where the control transfer `op` goes, read from the registers *after*
/// its result is written (so `calli a11` jumps to the fresh link).
TRC_SEMANTICS_INLINE Addr branch_target(Opcode op, const Operands& o) {
  using enum Opcode;
  switch (op) {
    case kJi: case kCalli: return o.a[o.in.ra];
    case kRet: return o.a[11];
    default:  // PC-relative: signed word displacement from the next PC
      return o.pc + kInstrBytes + static_cast<Addr>(o.in.imm * 4);
  }
}

/// Data address of a load or store: a[ra] + sext(imm16).
TRC_SEMANTICS_INLINE Addr effective_address(const Operands& o) {
  return o.a[o.in.ra] + static_cast<Addr>(o.in.imm);
}

/// Bytes a load or store moves.
TRC_SEMANTICS_INLINE unsigned access_bytes(Opcode op) {
  switch (op) {
    case Opcode::kLdB: case Opcode::kStB: return 1;
    case Opcode::kLdH: case Opcode::kStH: return 2;
    default: return 4;
  }
}

/// Register value of a load from the `access_bytes(op)` raw bytes read.
TRC_SEMANTICS_INLINE u32 extend_loaded(Opcode op, u32 raw) {
  switch (op) {
    case Opcode::kLdB: return static_cast<u32>(static_cast<i32>(static_cast<i8>(raw)));
    case Opcode::kLdH: return static_cast<u32>(static_cast<i32>(static_cast<i16>(raw)));
    default: return raw;
  }
}

/// Register value a store writes (low access_bytes() bytes are used).
TRC_SEMANTICS_INLINE u32 store_value(const Operands& o) {
  return o.in.opcode == Opcode::kStA ? o.a[o.in.rd] : o.d[o.in.rd];
}

#undef TRC_SEMANTICS_INLINE

}  // namespace audo::isa
