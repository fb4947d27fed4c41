#include "fault/safety_monitor.hpp"

#include <algorithm>
#include <string>

#include "cpu/cpu.hpp"
#include "periph/irq_router.hpp"
#include "periph/peripherals.hpp"
#include "telemetry/metrics.hpp"

namespace audo::fault {

const char* to_string(AlarmKind kind) {
  switch (kind) {
    case AlarmKind::kEccCorrected: return "ecc_corrected";
    case AlarmKind::kEccUncorrectable: return "ecc_uncorrectable";
    case AlarmKind::kBusError: return "bus_error";
    case AlarmKind::kWatchdogTimeout: return "wdt_timeout";
    case AlarmKind::kCpuTrap: return "cpu_trap";
    case AlarmKind::kCount: break;
  }
  return "?";
}

const char* to_string(Reaction kind) {
  switch (kind) {
    case Reaction::kRecord: return "record";
    case Reaction::kIrq: return "irq";
    case Reaction::kTrap: return "trap";
    case Reaction::kHaltCore: return "halt";
  }
  return "?";
}

void SafetyMonitor::bind(periph::IrqRouter* router, unsigned alarm_src,
                         cpu::Cpu* tc, const periph::Watchdog* watchdog) {
  router_ = router;
  alarm_src_ = alarm_src;
  tc_ = tc;
  watchdog_ = watchdog;
  last_wdt_timeouts_ = watchdog != nullptr ? watchdog->timeouts() : 0;
}

void SafetyMonitor::react(AlarmKind kind, Cycle now) {
  (void)now;
  switch (config_.reaction(kind)) {
    case Reaction::kRecord:
      return;
    case Reaction::kIrq:
      if (router_ != nullptr) router_->post(alarm_src_);
      obs_.alarm_irq = true;
      break;
    case Reaction::kTrap:
      if (tc_ != nullptr) tc_->request_trap(static_cast<u8>(kind));
      break;
    case Reaction::kHaltCore:
      if (tc_ != nullptr) tc_->force_halt();
      obs_.halt_request = true;
      break;
  }
  ++reactions_fired_;
}

void SafetyMonitor::step_cycle(Cycle now, const mcds::ObservationFrame& frame,
                               mcds::SafetyObservation& out) {
  // A quiet cycle (the common case) observes and counts nothing.
  if (!frame.sri.error_response && !frame.tc.trap_entry &&
      !frame.pcp.trap_entry && quiescent()) {
    return;
  }
  obs_.reset();

  // Fold frame strobes and the watchdog delta into the posted alarms.
  if (frame.sri.error_response) post(AlarmKind::kBusError);
  if (frame.tc.trap_entry || frame.pcp.trap_entry) post(AlarmKind::kCpuTrap);
  if (watchdog_ != nullptr) {
    const u64 timeouts = watchdog_->timeouts();
    for (u64 i = last_wdt_timeouts_; i < timeouts; ++i) {
      post(AlarmKind::kWatchdogTimeout);
    }
    last_wdt_timeouts_ = timeouts;
  }

  for (unsigned k = 0; k < kNumAlarmKinds; ++k) {
    const u32 count = pending_[k];
    if (count == 0) continue;
    pending_[k] = 0;
    totals_[k] += count;
    switch (static_cast<AlarmKind>(k)) {
      case AlarmKind::kEccCorrected:
        obs_.ecc_corrected = static_cast<u8>(std::min<u32>(count, 255));
        break;
      case AlarmKind::kEccUncorrectable:
        obs_.ecc_uncorrectable = static_cast<u8>(std::min<u32>(count, 255));
        break;
      case AlarmKind::kBusError: obs_.bus_error = true; break;
      case AlarmKind::kWatchdogTimeout: obs_.wdt_timeout = true; break;
      case AlarmKind::kCpuTrap: obs_.cpu_trap = true; break;
      case AlarmKind::kCount: break;
    }
    react(static_cast<AlarmKind>(k), now);
  }
  posted_ = false;
  out = obs_;
}

bool SafetyMonitor::quiescent() const {
  return !posted_ &&
         (watchdog_ == nullptr || watchdog_->timeouts() == last_wdt_timeouts_);
}

void SafetyMonitor::register_metrics(telemetry::MetricsRegistry& registry,
                                     std::string_view component) const {
  for (unsigned k = 0; k < kNumAlarmKinds; ++k) {
    registry.counter(std::string(component),
                     std::string("alarm.") +
                         to_string(static_cast<AlarmKind>(k)),
                     &totals_[k]);
  }
  registry.counter(std::string(component), "reactions", &reactions_fired_);
}

}  // namespace audo::fault
