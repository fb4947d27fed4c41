// The per-cycle observation frame: everything the MCDS can see.
//
// §3: "Adaptation logic allows reuse of the MCDS trigger block with a
// range of cores" — this frame *is* that adaptation layer. The SoC
// publishes one frame per clock cycle; MCDS observation blocks, trigger
// logic and counters consume it. Observation is strictly read-only:
// nothing in the MCDS can reach back into the SoC, which makes
// non-intrusiveness a structural property (verified by test).
#pragma once

#include <array>

#include "bus/crossbar.hpp"
#include "common/types.hpp"
#include "mem/pflash.hpp"

namespace audo::mcds {

/// Why a core issued zero instructions in a cycle.
enum class StallCause : u8 {
  kNone = 0,      // instructions issued
  kIFetch,        // fetch starved (I-cache miss / flash fetch in flight)
  kLoadUse,       // operand waiting on an outstanding load
  kLsPortBusy,    // load/store port structurally busy
  kExecLatency,   // multi-cycle result (DIV/MUL chain) not ready
  kWfi,           // waiting for interrupt
  kHalted,
};

const char* to_string(StallCause cause);

/// *Why* the stall symptom happened — the result of walking the
/// responsible outstanding transaction through cache → PFlash →
/// crossbar (see DESIGN.md, "Stall attribution & interference matrix").
/// Exactly one root cause is assigned per present-core cycle (kNone when
/// instructions issued), so per-core bucket sums are conservative and
/// complete: they add up to the core's total cycles.
enum class StallRootCause : u8 {
  kNone = 0,           // instructions issued this cycle
  kFrontend,           // local fetch/decode bubble (redirect, PSPR fetch,
                       // irq/trap entry cycle)
  kExec,               // core-internal latency (EX chain, load writeback)
  kFlashBuffer,        // flash access served from a read/prefetch buffer
  kFlashRead,          // flash array line fetch (read-buffer miss)
  kFlashPortConflict,  // code-vs-data port conflict on the flash array
  kBusArbitration,     // waiting for a crossbar grant (lost arbitration)
  kBusSlaveBusy,       // granted: a non-flash slave is serving the access
  kWfi,                // parked waiting for interrupt
  kHalted,
  kCount,
};
inline constexpr unsigned kNumStallRootCauses =
    static_cast<unsigned>(StallRootCause::kCount);

const char* to_string(StallRootCause cause);

/// Full per-cycle stall attribution: the core-side symptom plus the
/// cross-layer root cause, and — when the root is a lost arbitration —
/// which master held the slave the core was waiting for.
struct StallAttribution {
  static constexpr u8 kNoSlave = 0xFF;

  StallCause symptom = StallCause::kNone;
  StallRootCause root = StallRootCause::kNone;
  /// Master occupying the blocking slave (kCount = none recorded).
  bus::MasterId blocking_master = bus::MasterId::kCount;
  /// Crossbar slave index the stalled transaction targets (kNoSlave =
  /// the stall never reached the fabric).
  u8 blocking_slave = kNoSlave;
};

/// One core's activity in one cycle.
struct CoreObservation {
  bool present = false;  // core exists in this SoC configuration
  u8 retired = 0;        // instructions retired this cycle (0..3)
  Addr retire_pc = 0;    // PC of the last instruction retired this cycle
  StallCause stall = StallCause::kNone;
  StallAttribution attr;  // filled by the Soc attribution walk (phase 4)

  // Program-flow discontinuity (taken branch, call, return, irq entry).
  bool discontinuity = false;
  Addr discontinuity_target = 0;

  bool irq_entry = false;
  u8 irq_prio = 0;
  bool irq_exit = false;

  /// The core entered its trap vector this cycle (uncorrectable error,
  /// safety-monitor reaction, ...).
  bool trap_entry = false;
  u8 trap_class = 0;

  /// The DEBUG instruction retired this cycle — a software-placed MCDS
  /// trigger strobe (used to mark regions of interest from code).
  bool debug_marker = false;

  // Data-side access retired this cycle (at most one per core per cycle).
  bool data_access = false;
  bool data_write = false;
  Addr data_addr = 0;
  u32 data_value = 0;
  u8 data_bytes = 0;

  // Event strobes tapped directly from the core-side hardware (§3: "tap
  // directly performance relevant event sources").
  bool icache_access = false;
  bool icache_hit = false;
  bool icache_miss = false;
  bool dcache_access = false;
  bool dcache_hit = false;
  bool dcache_miss = false;
  bool dspr_access = false;   // local data scratchpad access
  bool flash_data_access = false;  // data-side access routed to PFlash
  bool sram_data_access = false;   // data-side access routed to LMU SRAM
  bool periph_data_access = false; // data-side access routed to SFR space

  /// Per-cycle reset. Equivalent to assigning a fresh CoreObservation,
  /// written out so Soc::step() can clear just the two core records
  /// instead of value-initializing the whole frame every cycle. Copies a
  /// constant: assigning a temporary makes the compiler build it on the
  /// stack and read it back across the narrower stores of the non-zero
  /// defaults, a store-forwarding stall on every cycle of both tiers.
  void reset() {
    static constexpr CoreObservation kClean{};
    *this = kClean;
  }
};

/// DMA controller activity in one cycle.
struct DmaObservation {
  bool transfer = false;   // a DMA bus transaction completed this cycle
  u8 channel = 0;
};

/// Service requests raised by peripherals this cycle (IrqRouter::post on
/// a non-pending node). The execution-DAG builder uses these to measure
/// dispatch latency (raise cycle -> handler entry); the MCDS sees them as
/// ordinary event strobes. Raises only happen in stepped cycles — a
/// quiescent SoC's peripherals post nothing until their next activity
/// cycle, which bounds every fast-forward window — so idle skips never
/// lose one.
struct IrqObservation {
  struct Raise {
    u8 priority = 0;
    u8 target = 0;  // periph::IrqTarget numeric value (0=TC, 1=PCP, 2=DMA)
  };
  static constexpr unsigned kMaxRaises = 4;

  u8 count = 0;  // raises recorded (excess beyond kMaxRaises is dropped)
  std::array<Raise, kMaxRaises> raised{};

  void reset() { count = 0; }
};

/// Safety-monitor alarms raised this cycle (fault/safety_monitor.hpp
/// fills this; all zero when the monitor is disabled). Alarm strobes are
/// trigger/counter inputs like any other event source.
struct SafetyObservation {
  u8 ecc_corrected = 0;      // corrected single-bit errors this cycle
  u8 ecc_uncorrectable = 0;  // uncorrectable (double-bit) errors
  bool bus_error = false;
  bool wdt_timeout = false;
  bool cpu_trap = false;
  bool alarm_irq = false;    // monitor raised the NMI-style alarm IRQ
  bool halt_request = false; // monitor halted the core this cycle

  void reset() { *this = SafetyObservation{}; }
};

/// Everything observable in one clock cycle.
struct ObservationFrame {
  Cycle cycle = 0;
  CoreObservation tc;
  CoreObservation pcp;
  bus::FabricObservation sri;
  mem::PFlash::Strobes flash;
  DmaObservation dma;
  SafetyObservation safety;
  IrqObservation irq;
};

}  // namespace audo::mcds
