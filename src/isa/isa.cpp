#include "isa/isa.hpp"

#include <cstdio>
#include <unordered_map>

#include "common/bits.hpp"

namespace audo::isa {
namespace {

const std::unordered_map<std::string, Opcode>& mnemonic_map() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, Opcode>();
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
      (*m)[detail::kOpTable[i].mnemonic] = static_cast<Opcode>(i);
    }
    return m;
  }();
  return *map;
}

}  // namespace

u32 encode(const Instr& instr) {
  const OpInfo& info = op_info(instr.opcode);
  u32 word = 0;
  word = insert_bits(word, 24, 8, static_cast<u32>(instr.opcode));
  word = insert_bits(word, 20, 4, instr.rd & 0xF);
  word = insert_bits(word, 16, 4, instr.ra & 0xF);
  u32 imm_field;
  if (info.uses_rb) {
    imm_field = instr.rb & 0xF;
  } else {
    imm_field = static_cast<u32>(instr.imm) & 0xFFFF;
  }
  word = insert_bits(word, 0, 16, imm_field);
  return word;
}

Result<Instr> decode(u32 word) {
  if (const auto instr = try_decode(word)) return *instr;
  return error(StatusCode::kDecodeError,
               "unknown opcode " + std::to_string(bits(word, 24, 8)));
}

std::string format_instr(const Instr& instr) {
  const OpInfo& info = op_info(instr.opcode);
  char buf[64];
  const auto op = instr.opcode;
  if (info.uses_rb) {
    const char dst = (op == Opcode::kAdda) ? 'a' : 'd';
    std::snprintf(buf, sizeof buf, "%s %c%u, %c%u, %c%u", info.mnemonic, dst,
                  instr.rd, dst, instr.ra, dst, instr.rb);
  } else if (info.is_load || info.is_store) {
    const char reg = (op == Opcode::kLdA || op == Opcode::kStA) ? 'a' : 'd';
    std::snprintf(buf, sizeof buf, "%s %c%u, [a%u%+d]", info.mnemonic, reg,
                  instr.rd, instr.ra, instr.imm);
  } else if (info.is_cond_branch) {
    if (op == Opcode::kLoop) {
      std::snprintf(buf, sizeof buf, "loop a%u, %+d", instr.rd, instr.imm);
    } else if (op == Opcode::kJz || op == Opcode::kJnz) {
      std::snprintf(buf, sizeof buf, "%s d%u, %+d", info.mnemonic, instr.rd,
                    instr.imm);
    } else {
      std::snprintf(buf, sizeof buf, "%s d%u, d%u, %+d", info.mnemonic,
                    instr.rd, instr.ra, instr.imm);
    }
  } else {
    switch (op) {
      case Opcode::kJ:
      case Opcode::kCall:
        std::snprintf(buf, sizeof buf, "%s %+d", info.mnemonic, instr.imm);
        break;
      case Opcode::kJi:
      case Opcode::kCalli:
        std::snprintf(buf, sizeof buf, "%s a%u", info.mnemonic, instr.ra);
        break;
      case Opcode::kMovd:
        std::snprintf(buf, sizeof buf, "movd d%u, %d", instr.rd, instr.imm);
        break;
      case Opcode::kMovh:
        std::snprintf(buf, sizeof buf, "movh d%u, 0x%X", instr.rd,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kMovha:
        std::snprintf(buf, sizeof buf, "movha a%u, 0x%X", instr.rd,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kLea:
        std::snprintf(buf, sizeof buf, "lea a%u, [a%u%+d]", instr.rd, instr.ra,
                      instr.imm);
        break;
      case Opcode::kMovAD:
        std::snprintf(buf, sizeof buf, "mov.ad a%u, d%u", instr.rd, instr.ra);
        break;
      case Opcode::kMovDA:
        std::snprintf(buf, sizeof buf, "mov.da d%u, a%u", instr.rd, instr.ra);
        break;
      case Opcode::kMovA:
        std::snprintf(buf, sizeof buf, "mov.a a%u, a%u", instr.rd, instr.ra);
        break;
      case Opcode::kMfcr:
        std::snprintf(buf, sizeof buf, "mfcr d%u, %d", instr.rd, instr.imm);
        break;
      case Opcode::kMtcr:
        std::snprintf(buf, sizeof buf, "mtcr %d, d%u", instr.imm, instr.ra);
        break;
      case Opcode::kAbs:
        std::snprintf(buf, sizeof buf, "abs d%u, d%u", instr.rd, instr.ra);
        break;
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
        // Zero-extended at execute time: display the raw 16-bit pattern.
        std::snprintf(buf, sizeof buf, "%s d%u, d%u, 0x%X", info.mnemonic,
                      instr.rd, instr.ra,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kAddi:
      case Opcode::kShli:
      case Opcode::kShri:
      case Opcode::kSari:
        std::snprintf(buf, sizeof buf, "%s d%u, d%u, %d", info.mnemonic,
                      instr.rd, instr.ra, instr.imm);
        break;
      default:
        std::snprintf(buf, sizeof buf, "%s", info.mnemonic);
        break;
    }
  }
  return buf;
}

std::optional<Opcode> opcode_from_mnemonic(const std::string& mnemonic) {
  const auto& map = mnemonic_map();
  const auto it = map.find(mnemonic);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

}  // namespace audo::isa
