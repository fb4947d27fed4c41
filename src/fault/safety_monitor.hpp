// The SMU-like safety monitor: aggregates alarms from the whole platform
// and applies the configured reaction per alarm kind.
//
// Alarm sources:
//  * ECC domains (fault_injector.hpp) post() corrected/uncorrectable
//    alarms synchronously from the memory read path;
//  * bus error responses are picked up from the published
//    FabricObservation strobe, so the bus layer stays unaware of the
//    fault layer;
//  * watchdog timeouts are detected as a delta on the watchdog's
//    lifetime timeout counter;
//  * CPU trap entries come from the core observation strobe.
//
// The monitor steps once per cycle after the SoC assembled its
// observation frame and fills the frame's SafetyObservation, so MCDS
// triggers and the tracer see alarms with cycle accuracy. Reactions act
// on the *next* cycle (IRQ post / trap request) or immediately (halt),
// which mirrors how a real alarm matrix is a cycle behind the error.
#pragma once

#include <array>
#include <string_view>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "fault/safety.hpp"
#include "mcds/observation.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::cpu {
class Cpu;
}

namespace audo::periph {
class IrqRouter;
class Watchdog;
}

namespace audo::fault {

class SafetyMonitor {
 public:
  explicit SafetyMonitor(const SafetyConfig& config) : config_(config) {}

  /// Wire the reaction paths. `alarm_src` is the router node the kIrq
  /// reaction posts to ("smu.alarm"); it still needs router configuration
  /// (priority/enable) to actually reach a core.
  void bind(periph::IrqRouter* router, unsigned alarm_src, cpu::Cpu* tc,
            const periph::Watchdog* watchdog);

  bool enabled() const { return config_.monitor_enabled; }
  const SafetyConfig& config() const { return config_; }

  /// Report an alarm detected during the current cycle (ECC domains call
  /// this from inside memory reads). Collected and reacted upon at the
  /// end-of-cycle step_cycle().
  void post(AlarmKind kind) {
    pending_[static_cast<unsigned>(kind)] += 1;
    posted_ = true;
  }

  /// End-of-cycle: fold in frame strobes, count alarms and apply
  /// reactions. A quiet cycle (the common case) is O(1) and writes
  /// nothing, so `out` must arrive reset; any other cycle writes its
  /// safety observation to `out` (the Soc passes its frame's section).
  void step_cycle(Cycle now, const mcds::ObservationFrame& frame,
                  mcds::SafetyObservation& out);
  /// The same, returning the cycle's observation.
  mcds::SafetyObservation step_cycle(Cycle now,
                                     const mcds::ObservationFrame& frame) {
    mcds::SafetyObservation obs;
    step_cycle(now, frame, obs);
    return obs;
  }

  /// No posted-but-unstepped alarms and no unseen watchdog timeouts: a
  /// step_cycle() over frames with clear strobes would be an observable
  /// no-op. The superblock fast tier (soc.cpp) uses this to hoist the
  /// per-cycle monitor call out of a window whose invariants keep every
  /// alarm source silent. O(1).
  bool quiescent() const;

  u64 total(AlarmKind kind) const {
    return totals_[static_cast<unsigned>(kind)];
  }
  u64 reactions_fired() const { return reactions_fired_; }

  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

  /// Snapshot support: lifetime totals and the watchdog-delta reference.
  /// Per-cycle pending alarms and the in-flight observation are empty at
  /// a quiescent capture point and cleared on restore.
  void save_state(snapshot::Writer& w) const {
    for (u64 t : totals_) w.put_u64(t);
    w.put_u64(last_wdt_timeouts_);
    w.put_u64(reactions_fired_);
  }
  void restore_state(snapshot::Reader& r) {
    for (u64& t : totals_) t = r.get_u64();
    last_wdt_timeouts_ = r.get_u64();
    reactions_fired_ = r.get_u64();
    pending_.fill(0);
    posted_ = false;
    obs_ = mcds::SafetyObservation{};
  }

 private:
  void react(AlarmKind kind, Cycle now);

  SafetyConfig config_;
  periph::IrqRouter* router_ = nullptr;
  unsigned alarm_src_ = 0;
  cpu::Cpu* tc_ = nullptr;
  const periph::Watchdog* watchdog_ = nullptr;

  std::array<u32, kNumAlarmKinds> pending_{};  // posted this cycle
  bool posted_ = false;                        // some pending_ is nonzero
  std::array<u64, kNumAlarmKinds> totals_{};
  u64 last_wdt_timeouts_ = 0;
  u64 reactions_fired_ = 0;  // non-kRecord reactions applied
  mcds::SafetyObservation obs_;  // observation being assembled
};

}  // namespace audo::fault
