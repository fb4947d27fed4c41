// Superblock fast execution tier (DESIGN.md, "Execution tiers").
//
// Every fast cycle runs in two phases over a predecoded chunk:
//
//   phase A (plan)   — decide everything the cycle will do (delivery of
//                      the in-flight fetch, the issue group, the data
//                      route, the next fetch) touching no state. Any
//                      condition the fast model cannot represent —
//                      unsupported op, cache miss, bus route, stale code
//                      word — returns false with the machine untouched,
//                      and the caller replays the cycle with step().
//   phase B (commit) — apply the plan through a function-pointer
//                      dispatch table, reproducing the accurate
//                      stepper's mutations and observation strobes
//                      bit-for-bit (including counter bumps and cache
//                      LRU/stat updates).
//
// The window model freezes everything step() consults outside the core:
// no bus traffic, no peripheral activity, no interrupt or trap delivery,
// no fault hooks. The owning Soc guarantees those invariants before
// opening a window and bounds it by the next peripheral activity cycle.
#include <algorithm>
#include <cassert>
#include <utility>

#include "cpu/cpu.hpp"
#include "mem/memory_map.hpp"

namespace audo::cpu {

using isa::Opcode;
using isa::Pipe;
using isa::SuperOp;
using mcds::StallCause;

const char* to_string(FastBail bail) {
  switch (bail) {
    case FastBail::kNone: return "none";
    case FastBail::kNoSuperblocks: return "no_superblocks";
    case FastBail::kFrontendBusy: return "frontend_busy";
    case FastBail::kCoreState: return "core_state";
    case FastBail::kDataBusy: return "data_busy";
    case FastBail::kNoBlock: return "no_superblock";
    case FastBail::kCodeRoute: return "code_route";
    case FastBail::kStaleCode: return "stale_code";
    case FastBail::kChunkTail: return "chunk_tail";
    case FastBail::kFallOff: return "chunk_falloff";
    case FastBail::kUnsupportedOp: return "unsupported_op";
    case FastBail::kDataRoute: return "data_route";
    case FastBail::kIcacheMiss: return "icache_miss";
    case FastBail::kCount: break;
  }
  return "?";
}

// --------------------------------------------------------------------------
// Commit table: one entry per opcode, each a per-kind commit instantiated
// for that opcode, so the isa/semantics.hpp switches fold to one case.
// The sequences are those of Cpu::execute() (values, scoreboard
// deadlines, observation strobes, redirect behaviour); only the data
// route differs, because the plan admits just the scratchpad and D-cache
// hits.

struct FastExec {
  using Obs = mcds::CoreObservation;
  using Mem = Cpu::FastMemPlan;
  using Fn = void (*)(Cpu&, const SuperOp&, Addr, Cycle, Obs&, const Mem&);

  static void unreachable(Cpu&, const SuperOp&, Addr, Cycle, Obs&,
                          const Mem&) {
    assert(false && "bail-flagged op reached the fast dispatch table");
  }

  static void nop(Cpu&, const SuperOp&, Addr, Cycle, Obs&, const Mem&) {}

  /// IP and LS register ops: write the result.
  template <Opcode Op>
  static void alu(Cpu& c, const SuperOp& op, Addr pc, Cycle now, Obs&,
                  const Mem&) {
    c.write_reg(op.regs.dest, isa::result(Op, c.operands(op.instr, pc)),
                now + op.latency);
  }

  /// LP ops: as the default case of Cpu::execute().
  template <Opcode Op>
  static void branch(Cpu& c, const SuperOp& op, Addr pc, Cycle now, Obs& obs,
                     const Mem&) {
    const isa::Operands o = c.operands(op.instr, pc);
    const bool taken = isa::branch_taken(Op, o);
    if (op.regs.dest != isa::RegOperands::kNoReg) {
      c.write_reg(op.regs.dest, isa::result(Op, o), now + op.latency);
    }
    if (taken) c.redirect(isa::branch_target(Op, o), obs);
  }

  template <Opcode Op>
  static void load(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs& obs,
                   const Mem& mem) {
    constexpr unsigned bytes = isa::access_bytes(Op);
    u32 raw;
    if (mem.flash_hit) {
      obs.dcache_access = true;
      obs.dcache_hit = true;
      // Phase A found the line; commit the hit's LRU/stat update that the
      // accurate path's access() performs.
      c.env_.dcache->access_found(mem.addr, mem.dcache_way);
      raw = c.env_.flash->read(mem::pflash_offset(mem.addr), bytes);
    } else {
      obs.dspr_access = true;
      raw = c.env_.data_spr->read(mem.addr, bytes);
    }
    const u32 value = isa::extend_loaded(Op, raw);
    c.write_reg(op.regs.dest, value, now + op.latency);
    obs.data_access = true;
    obs.data_addr = mem.addr;
    obs.data_value = value;
    obs.data_bytes = static_cast<u8>(bytes);
  }

  template <Opcode Op>
  static void store(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs,
                    const Mem& mem) {
    constexpr unsigned bytes = isa::access_bytes(Op);
    const u32 value = isa::store_value(c.operands(op.instr, pc));
    obs.dspr_access = true;  // plan admits only the scratchpad route
    c.env_.data_spr->write(mem.addr, value, bytes);
    obs.data_access = true;
    obs.data_write = true;
    obs.data_addr = mem.addr;
    obs.data_value = value;
    obs.data_bytes = static_cast<u8>(bytes);
  }

  template <Opcode Op>
  static constexpr Fn commit_for() {
    constexpr isa::OpInfo info = isa::op_info(Op);
    if constexpr (info.pipe == Pipe::kSys) {
      // Every SYS op but NOP is kBail-flagged and never dispatched.
      return Op == Opcode::kNop ? &nop : &unreachable;
    } else if constexpr (info.is_load) {
      return &load<Op>;
    } else if constexpr (info.is_store) {
      return &store<Op>;
    } else if constexpr (info.is_branch) {
      return &branch<Op>;
    } else {
      return &alu<Op>;
    }
  }

  template <usize... I>
  static constexpr std::array<Fn, isa::kNumOpcodes> make_table(
      std::index_sequence<I...>) {
    return {commit_for<static_cast<Opcode>(I)>()...};
  }

  static const std::array<Fn, isa::kNumOpcodes> kTable;
};

const std::array<FastExec::Fn, isa::kNumOpcodes> FastExec::kTable =
    FastExec::make_table(std::make_index_sequence<isa::kNumOpcodes>{});

// --------------------------------------------------------------------------
// Window entry / exit.

bool Cpu::fast_enter(FastWindow& fw) {
  if (env_.superblocks == nullptr) return bail(FastBail::kNoSuperblocks);
  // A fully drained core: the virtualised fetch queue starts empty and
  // the real fetch machinery fields describe an idle front end.
  if (const FastBail b = fast_drained(); b != FastBail::kNone) return bail(b);
  if (wfi_ || needs_slow_step()) return bail(FastBail::kCoreState);
  const isa::Superblock* blk = env_.superblocks->lookup(next_pc_);
  if (blk == nullptr || blk->ops.empty()) return bail(FastBail::kNoBlock);
  if (blk->pspr) {
    if (env_.code_spr == nullptr) return bail(FastBail::kCodeRoute);
  } else {
    // Flash-resident code is only representable through I-cache hits.
    if (env_.flash == nullptr || env_.icache == nullptr ||
        !env_.icache->config().enabled) {
      return bail(FastBail::kCodeRoute);
    }
  }
  fw.blk = blk;
  fw.front = 0;
  fw.count = 0;
  fw.left_chunk = false;
  fw.checked_lo = 0;
  fw.checked_hi = 0;
  return true;
}

void Cpu::fast_exit(FastWindow& fw) {
  if (fw.blk == nullptr) return;
  const isa::Superblock& blk = *fw.blk;
  for (u32 k = 0; k < fw.count; ++k) {
    const u32 idx = fw.front + k;
    const SuperOp& op = blk.ops[idx];
    fetch_queue_.push_back(
        Fetched{blk.base + idx * isa::kInstrBytes, op.instr, op.regs});
  }
  fw.blk = nullptr;
  fw.front = 0;
  fw.count = 0;
}

u32 Cpu::peek_code_word(const isa::Superblock& blk, u32 idx) const {
  const Addr pc = blk.base + idx * isa::kInstrBytes;
  if (blk.pspr) {
    return env_.code_spr->array().peek(pc - env_.code_spr->base(), 4);
  }
  return env_.flash->peek(mem::pflash_offset(pc), 4);
}

// --------------------------------------------------------------------------
// One fast cycle.

bool Cpu::fast_cycle(FastWindow& fw, Cycle now, mcds::CoreObservation& obs) {
  const isa::Superblock& blk = *fw.blk;
  const u32 nops = static_cast<u32>(blk.ops.size());

  // ---- Phase A: plan. No machine state is touched before the commit
  // marker; only fw's checked range may grow, which holds either way. ----
  assert(fetch_state_ != FetchState::kBusWait);

  // Virtual delivery of the in-flight local fetch (try_finish_fetch).
  // Words are validated against memory through the side-effect-free peek
  // path, once per window: a mismatch means code changed under the
  // predecode (a write that bypassed the invalidation funnel) and the
  // cycle bails so the accurate decoder re-reads it.
  u32 deliver_idx = 0;
  unsigned deliver_words = 0;
  if (fetch_state_ == FetchState::kLocalWait) {
    assert(now >= fetch_ready_at_);  // local fetches always take one cycle
    if (!blk.contains(fetch_addr_)) return bail(FastBail::kChunkTail);
    deliver_idx = blk.index_of(fetch_addr_);
    deliver_words = fetch_words_;
    const u32 deliver_end = deliver_idx + deliver_words;
    if (deliver_end > nops) return bail(FastBail::kChunkTail);
    if (deliver_idx < fw.checked_lo || deliver_end > fw.checked_hi) {
      for (u32 i = deliver_idx; i < deliver_end; ++i) {
        if (peek_code_word(blk, i) != blk.ops[i].word) {
          return bail(FastBail::kStaleCode);
        }
      }
      // Grow the checked range when the two touch, else restart it here.
      if (deliver_idx <= fw.checked_hi && deliver_end >= fw.checked_lo &&
          fw.checked_lo != fw.checked_hi) {
        fw.checked_lo = std::min(fw.checked_lo, deliver_idx);
        fw.checked_hi = std::max(fw.checked_hi, deliver_end);
      } else {
        fw.checked_lo = deliver_idx;
        fw.checked_hi = deliver_end;
      }
    }
    assert(fw.count == 0 || deliver_idx == fw.front + fw.count);
  }
  const u32 q_front = fw.count == 0 ? deliver_idx : fw.front;
  const u32 q_count = fw.count + deliver_words;

  // Issue planning: mirrors the accurate issue loop. In-group hazards are
  // tracked as written-register masks — a register written earlier in the
  // group has a future scoreboard deadline in the accurate model, so a
  // later candidate sourcing it must not issue; conversely, every source
  // an issuing op reads is untouched by this group, so register values
  // read during planning equal the commit-time values.
  unsigned pipes_used = 0;  // one bit per isa::Pipe issued this cycle
  unsigned plan = 0;
  bool redirected = false;
  StallCause stall = StallCause::kNone;
  u32 written_d = 0;
  u32 written_a = 0;
  FastMemPlan mem{};

  while (plan < config_.issue_width && plan < q_count) {
    const SuperOp& op = blk.ops[q_front + plan];
    if (op.flags & SuperOp::kBail) {
      // With nothing issued yet the unsupported op would execute this
      // cycle: bail. Otherwise it merely ends the group (SYS issues
      // alone) and stays queued for the accurate stepper.
      if (plan == 0) return bail(FastBail::kUnsupportedOp);
      break;
    }
    const auto pipe = static_cast<Pipe>(op.pipe);
    const unsigned pipe_bit = 1u << op.pipe;
    // A pipe slot taken ends the group; a SYS op (NOP) issues alone.
    if ((pipes_used & pipe_bit) != 0 || (pipe == Pipe::kSys && plan > 0)) {
      break;
    }

    bool ready = true;
    for (const u8 enc : op.regs.src) {
      if (enc == isa::RegOperands::kNoReg) break;
      const u8 r = enc & 0xF;
      if (is_addr_reg(enc)) {
        if (a_ready_[r] > now || ((written_a >> r) & 1) != 0) ready = false;
      } else {
        if (d_ready_[r] > now || ((written_d >> r) & 1) != 0) ready = false;
      }
      if (!ready) break;
    }
    if (!ready) {
      // kLoadUse needs a kFar (bus-load) deadline; the window admits no
      // bus loads, so the only source-wait symptom is kExecLatency.
      if (plan == 0) stall = StallCause::kExecLatency;
      break;
    }

    const Addr pc = blk.base + (q_front + plan) * isa::kInstrBytes;
    if ((op.flags & (SuperOp::kLoad | SuperOp::kStore)) != 0) {
      if (env_.data_spr == nullptr) return bail(FastBail::kDataRoute);
      const Addr addr = isa::effective_address(operands(op.instr, pc));
      if (env_.data_spr->contains(addr)) {
        mem = FastMemPlan{addr, false, 0};
      } else {
        const unsigned way =
            (op.flags & SuperOp::kLoad) != 0 && env_.dcache != nullptr &&
                    addr_in_cached_flash(addr)
                ? env_.dcache->find(addr)
                : cache::Cache::kMiss;
        // Bus route or D-cache miss: accurate path only.
        if (way == cache::Cache::kMiss) return bail(FastBail::kDataRoute);
        mem = FastMemPlan{addr, true, way};
      }
    }

    if ((op.flags & SuperOp::kBranch) != 0 &&
        isa::branch_taken(op.instr.opcode, operands(op.instr, pc))) {
      redirected = true;
    }

    if (const u8 dest = op.regs.dest; dest != isa::RegOperands::kNoReg) {
      (is_addr_reg(dest) ? written_a : written_d) |= 1u << (dest & 0xF);
    }
    pipes_used |= pipe_bit;
    ++plan;
    if (pipe == Pipe::kSys || redirected) break;
  }

  // Fetch-start planning (try_start_fetch, after the issue loop). A cycle
  // where the accurate stepper would start a fetch the window cannot
  // represent (off-chunk, I-cache miss, uncached code) must bail.
  const u32 q_after = q_count - plan;
  bool start_fetch = false;
  unsigned fetch_way = cache::Cache::kMiss;  // I-cache way (flash code)
  unsigned fetch_words = 0;
  if (!redirected) {
    const bool fetch_idle =
        fetch_state_ == FetchState::kIdle || deliver_words != 0;
    if (fetch_idle &&
        q_after + config_.fetch_block_words <= config_.fetch_queue_depth) {
      const Addr pc = fetch_pc_;
      if (!blk.contains(pc)) return bail(FastBail::kFallOff);
      const u32 block_bytes = config_.fetch_block_words * isa::kInstrBytes;
      const Addr block_end = (pc & ~(block_bytes - 1)) + block_bytes;
      fetch_words = (block_end - pc) / isa::kInstrBytes;
      if (blk.index_of(pc) + fetch_words > nops) {
        return bail(FastBail::kChunkTail);
      }
      if (!blk.pspr) {
        // A miss means the accurate fetch would refill on the bus.
        fetch_way = env_.icache->find(pc);
        if (fetch_way == cache::Cache::kMiss) {
          return bail(FastBail::kIcacheMiss);
        }
      }
      start_fetch = true;
    }
  }

  // ---- Phase B: commit. The cycle is fully representable. --------------
  ++cycles_;
  obs.present = true;

  if (deliver_words != 0) {
    if (blk.pspr) {
      // The accurate delivery reads each word through the counted
      // scratchpad path; mirror the counter bumps (registered metrics
      // and snapshot state). Flash-backed delivery reads the backdoor
      // array, which has no observable side effects.
      for (unsigned w = 0; w < deliver_words; ++w) {
        (void)env_.code_spr->read(fetch_addr_ + w * isa::kInstrBytes, 4);
      }
    }
    if (fw.count == 0) fw.front = deliver_idx;
    fw.count += deliver_words;
    fetch_state_ = FetchState::kIdle;
  }

  for (unsigned k = 0; k < plan; ++k) {
    const u32 idx = q_front + k;
    const SuperOp& op = blk.ops[idx];
    const Addr pc = blk.base + idx * isa::kInstrBytes;
    next_pc_ = pc + isa::kInstrBytes;
    FastExec::kTable[static_cast<usize>(op.instr.opcode)](*this, op, pc, now,
                                                          obs, mem);
    ++retired_;
    obs.retire_pc = pc;
  }
  obs.retired = static_cast<u8>(plan);
  fw.front = q_front + plan;
  fw.count = q_count - plan;

  if (obs.discontinuity) {
    // redirect() flushed the (empty) real queue; flush the virtual one.
    fw.count = 0;
    if (!blk.contains(next_pc_)) fw.left_chunk = true;
  }

  if (plan == 0) {
    obs.stall = q_count == 0 ? StallCause::kIFetch
                : stall == StallCause::kNone ? StallCause::kExecLatency
                                             : stall;
  }

  if (start_fetch) {
    if (fetch_way != cache::Cache::kMiss) {
      obs.icache_access = true;
      obs.icache_hit = true;
      env_.icache->access_found(fetch_pc_, fetch_way);
    }
    fetch_addr_ = fetch_pc_;
    fetch_words_ = fetch_words;
    fetch_state_ = FetchState::kLocalWait;
    fetch_ready_at_ = now + 1;
    fetch_pc_ += fetch_words * isa::kInstrBytes;
  }
  return true;
}

}  // namespace audo::cpu
