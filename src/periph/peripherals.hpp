// The peripheral set of the simulated powertrain SoC: system timer,
// watchdog, crank-wheel model, ADC and a CAN-like message interface.
//
// These produce the hard-real-time event structure §4 describes:
// "processing activities are triggered by interrupts or at least are
// dependent on real-time data like converted analog inputs".
#pragma once

#include <algorithm>
#include <optional>

#include "common/prng.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "periph/irq_router.hpp"
#include "periph/sfr_bridge.hpp"

namespace audo::periph {

/// next_activity_cycle() result for "never": the component has no
/// autonomous future event scheduled.
inline constexpr Cycle kNoActivity = ~Cycle{0};

/// Free-running system timer with two compare channels.
/// SFRs: 0x00 TIM_LO (ro), 0x04 TIM_HI (ro), 0x08 CMP0, 0x0C CMP1,
/// 0x10 CTRL (bit0/1: compare enable; compares auto-rearm by +CMPn period).
class Stm final : public SfrDevice {
 public:
  Stm(IrqRouter* router, unsigned src_cmp0, unsigned src_cmp1)
      : router_(router), src_{src_cmp0, src_cmp1} {}

  void step(Cycle now);
  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Earliest future cycle (> now) whose step() could post an interrupt.
  Cycle next_activity_cycle(Cycle now) const {
    Cycle next = kNoActivity;
    for (int i = 0; i < 2; ++i) {
      if ((ctrl_ & (1u << i)) == 0 || period_[i] == 0) continue;
      // step() fires once counter_ reaches next_fire_; counter_ advances by
      // one per step, so the compare lands (next_fire_ - counter_) steps out
      // (immediately next step when the deadline already passed).
      const Cycle at = next_fire_[i] > counter_
                           ? now + (next_fire_[i] - counter_)
                           : now + 1;
      next = std::min(next, at);
    }
    return next;
  }
  /// Bulk-advance over `n` idle cycles (caller guarantees no compare
  /// fires inside the window; see next_activity_cycle()).
  void skip(u64 n) { counter_ += n; }

  u64 counter() const { return counter_; }

  void save_state(snapshot::Writer& w) const {
    w.put_u64(counter_);
    w.put_u64(next_fire_[0]);
    w.put_u64(next_fire_[1]);
    w.put_u32(period_[0]);
    w.put_u32(period_[1]);
    w.put_u32(ctrl_);
  }
  void restore_state(snapshot::Reader& r) {
    counter_ = r.get_u64();
    next_fire_[0] = r.get_u64();
    next_fire_[1] = r.get_u64();
    period_[0] = r.get_u32();
    period_[1] = r.get_u32();
    ctrl_ = r.get_u32();
  }

 private:
  IrqRouter* router_;
  unsigned src_[2];
  u64 counter_ = 0;
  u64 next_fire_[2] = {0, 0};
  u32 period_[2] = {0, 0};
  u32 ctrl_ = 0;
};

/// Window watchdog. SFRs: 0x00 SERVICE (write 0x5AFE), 0x04 PERIOD,
/// 0x08 WINDOW. A missed service posts the timeout SRC — the §5 trigger
/// demo "events not happening in a defined time window" watches this
/// class of failure.
///
/// WINDOW = 0 (reset value) keeps the classic always-open behaviour: a
/// correctly-keyed service at any time restarts the period. A non-zero
/// WINDOW opens the service window only once `remaining_` has counted
/// down to <= WINDOW; servicing earlier is a violation and is treated
/// like a timeout (counted, SRC posted, period restarted). Writes with
/// the wrong key are ignored but counted in bad_services().
class Watchdog final : public SfrDevice {
 public:
  Watchdog(IrqRouter* router, unsigned src_timeout)
      : router_(router), src_timeout_(src_timeout) {}

  void step(Cycle now);
  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Earliest future cycle whose step() could time out; kNoActivity when
  /// the watchdog is disabled.
  Cycle next_activity_cycle(Cycle now) const {
    if (period_ == 0) return kNoActivity;
    // step() times out on the tick that takes remaining_ to zero.
    return now + (remaining_ == 0 ? 1 : remaining_);
  }
  /// Bulk-advance over `n` idle cycles (n < remaining ticks to timeout).
  void skip(u64 n) {
    if (period_ != 0) remaining_ -= static_cast<u32>(n);
  }
  /// Disabled watchdogs never wake an idle system (idle-deadlock scan).
  bool enabled() const { return period_ != 0; }

  u64 timeouts() const { return timeouts_; }
  u64 early_services() const { return early_services_; }
  u64 bad_services() const { return bad_services_; }
  static constexpr u32 kServiceKey = 0x5AFE;

  void save_state(snapshot::Writer& w) const {
    w.put_u32(period_);
    w.put_u32(window_);
    w.put_u32(remaining_);
    w.put_u64(timeouts_);
    w.put_u64(early_services_);
    w.put_u64(bad_services_);
  }
  void restore_state(snapshot::Reader& r) {
    period_ = r.get_u32();
    window_ = r.get_u32();
    remaining_ = r.get_u32();
    timeouts_ = r.get_u64();
    early_services_ = r.get_u64();
    bad_services_ = r.get_u64();
  }

 private:
  IrqRouter* router_;
  unsigned src_timeout_;
  u32 period_ = 0;  // 0 = disabled
  u32 window_ = 0;  // 0 = always-open (classic) service window
  u32 remaining_ = 0;
  u64 timeouts_ = 0;
  u64 early_services_ = 0;
  u64 bad_services_ = 0;
};

/// Crank-wheel model: a 60-2 trigger wheel driving tooth interrupts.
/// SFRs: 0x00 RPM (rw), 0x04 TOOTH (ro, 0..59), 0x08 REV (ro),
/// 0x0C ANGLE_Q8 (ro, crank angle in degrees * 256),
/// 0x10 TOOTH_TIME (ro, cycle of the last tooth edge — ISR-latency
/// measurement reference).
class CrankWheel final : public SfrDevice {
 public:
  struct Config {
    u64 clock_hz = 180'000'000;
    unsigned teeth = 60;       // positions per revolution
    unsigned missing = 2;      // trailing gap teeth (no tooth irq)
    u32 initial_rpm = 3000;
    /// Simulation time compression: tooth period is divided by this, so
    /// short runs still see full engine cycles.
    u32 time_scale = 1;
  };

  CrankWheel(const Config& config, IrqRouter* router, unsigned src_tooth,
             unsigned src_sync)
      : config_(config), router_(router), src_tooth_(src_tooth),
        src_sync_(src_sync), rpm_(config.initial_rpm) {
    recompute_period();
    countdown_ = cycles_per_tooth_;  // first tooth after one full period
  }

  void step(Cycle now);
  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Cycle of the next tooth position (always finite: the wheel spins
  /// whether or not anyone listens).
  Cycle next_activity_cycle(Cycle now) const { return now + countdown_; }
  /// Bulk-advance over `n` idle cycles (n < countdown to the next tooth).
  void skip(u64 n) { countdown_ -= n; }

  void set_rpm(u32 rpm) {
    rpm_ = rpm == 0 ? 1 : rpm;
    recompute_period();
  }
  u32 rpm() const { return rpm_; }
  /// Simulation time compression (see Config::time_scale).
  void set_time_scale(u32 scale) {
    config_.time_scale = scale == 0 ? 1 : scale;
    recompute_period();
  }
  u64 revolutions() const { return revs_; }
  unsigned tooth() const { return tooth_; }

  void save_state(snapshot::Writer& w) const {
    w.put_u32(config_.time_scale);
    w.put_u32(rpm_);
    w.put_u64(cycles_per_tooth_);
    w.put_u64(countdown_);
    w.put_u32(static_cast<u32>(tooth_));
    w.put_u64(revs_);
    w.put_u64(last_tooth_cycle_);
  }
  void restore_state(snapshot::Reader& r) {
    config_.time_scale = r.get_u32();
    rpm_ = r.get_u32();
    cycles_per_tooth_ = r.get_u64();
    countdown_ = r.get_u64();
    tooth_ = r.get_u32();
    revs_ = r.get_u64();
    last_tooth_cycle_ = r.get_u64();
  }

 private:
  void recompute_period();

  Config config_;
  IrqRouter* router_;
  unsigned src_tooth_;
  unsigned src_sync_;
  u32 rpm_;
  u64 cycles_per_tooth_ = 1;
  u64 countdown_ = 1;
  unsigned tooth_ = 0;
  u64 revs_ = 0;
  Cycle last_tooth_cycle_ = 0;
};

/// ADC with a conversion pipeline and an autonomous trigger period.
/// SFRs: 0x00 START (write = software trigger), 0x04 RESULT (ro),
/// 0x08 PERIOD (auto-trigger every N cycles, 0 = off), 0x0C CHANNEL.
class Adc final : public SfrDevice {
 public:
  struct Config {
    unsigned conversion_cycles = 40;
    u32 period = 0;
  };

  Adc(const Config& config, IrqRouter* router, unsigned src_done,
      u64 waveform_seed = 42)
      : config_(config), router_(router), src_done_(src_done),
        period_(config.period), prng_(waveform_seed) {}

  void step(Cycle now);
  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Earliest future cycle whose step() starts or completes a conversion;
  /// kNoActivity when auto-trigger is off and no conversion is in flight.
  Cycle next_activity_cycle(Cycle now) const {
    Cycle next = kNoActivity;
    if (period_ != 0) next = std::min(next, std::max(next_auto_, now + 1));
    if (done_at_) next = std::min(next, std::max(*done_at_, now + 1));
    return next;
  }
  /// Bulk-advance over `n` idle cycles. Deadlines are absolute, so only
  /// the last-step bookkeeping moves.
  void skip(u64 n) { last_step_ += n; }

  u32 last_result() const { return result_; }
  u64 conversions() const { return conversions_; }

  void save_state(snapshot::Writer& w) const {
    w.put_u32(period_);
    w.put_u32(channel_);
    for (unsigned i = 0; i < Prng::kStateWords; ++i) {
      w.put_u64(prng_.state_word(i));
    }
    w.put_u32(result_);
    w.put_u64(conversions_);
    w.put_bool(done_at_.has_value());
    w.put_u64(done_at_.value_or(0));
    w.put_u64(next_auto_);
    w.put_u64(last_step_);
  }
  void restore_state(snapshot::Reader& r) {
    period_ = r.get_u32();
    channel_ = r.get_u32();
    for (unsigned i = 0; i < Prng::kStateWords; ++i) {
      prng_.set_state_word(i, r.get_u64());
    }
    result_ = r.get_u32();
    conversions_ = r.get_u64();
    const bool has_done = r.get_bool();
    const Cycle done = r.get_u64();
    done_at_ = has_done ? std::optional<Cycle>(done) : std::nullopt;
    next_auto_ = r.get_u64();
    last_step_ = r.get_u64();
  }

 private:
  u32 sample(Cycle now);

  Config config_;
  IrqRouter* router_;
  unsigned src_done_;
  u32 period_;
  u32 channel_ = 0;
  Prng prng_;
  u32 result_ = 0;
  u64 conversions_ = 0;
  std::optional<Cycle> done_at_;
  Cycle next_auto_ = 0;
  Cycle last_step_ = 0;
};

/// CAN-like message interface: periodic RX frames and a TX path with a
/// serialization delay.
/// SFRs: 0x00 TX_TRIGGER (write = send, value = payload),
/// 0x04 TX_BUSY (ro), 0x08 RX_DATA (ro, reading clears pending),
/// 0x0C RX_PENDING (ro), 0x10 RX_PERIOD (rw, cycles; 0 = off).
class CanLite final : public SfrDevice {
 public:
  struct Config {
    unsigned tx_cycles = 500;  // ~100-bit frame at scaled baud
    u32 rx_period = 0;
  };

  CanLite(const Config& config, IrqRouter* router, unsigned src_rx,
          unsigned src_tx)
      : config_(config), router_(router), src_rx_(src_rx), src_tx_(src_tx),
        rx_period_(config.rx_period) {}

  void step(Cycle now);
  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Earliest future cycle whose step() delivers an RX frame or finishes
  /// a TX; kNoActivity when RX is off and no TX is serializing.
  Cycle next_activity_cycle(Cycle now) const {
    Cycle next = kNoActivity;
    if (rx_period_ != 0) next = std::min(next, std::max(next_rx_, now + 1));
    if (tx_done_at_) next = std::min(next, std::max(*tx_done_at_, now + 1));
    return next;
  }
  /// Bulk-advance over `n` idle cycles (deadlines are absolute).
  void skip(u64 n) { last_step_ += n; }

  u64 rx_frames() const { return rx_frames_; }
  u64 rx_overruns() const { return rx_overruns_; }
  u64 tx_frames() const { return tx_frames_; }

  void save_state(snapshot::Writer& w) const {
    w.put_u32(rx_period_);
    w.put_u64(next_rx_);
    w.put_u32(rx_data_);
    w.put_bool(rx_pending_);
    w.put_u64(rx_frames_);
    w.put_u64(rx_overruns_);
    w.put_bool(tx_done_at_.has_value());
    w.put_u64(tx_done_at_.value_or(0));
    w.put_u64(tx_frames_);
    w.put_u64(last_step_);
  }
  void restore_state(snapshot::Reader& r) {
    rx_period_ = r.get_u32();
    next_rx_ = r.get_u64();
    rx_data_ = r.get_u32();
    rx_pending_ = r.get_bool();
    rx_frames_ = r.get_u64();
    rx_overruns_ = r.get_u64();
    const bool has_tx = r.get_bool();
    const Cycle tx_done = r.get_u64();
    tx_done_at_ = has_tx ? std::optional<Cycle>(tx_done) : std::nullopt;
    tx_frames_ = r.get_u64();
    last_step_ = r.get_u64();
  }

 private:
  Config config_;
  IrqRouter* router_;
  unsigned src_rx_;
  unsigned src_tx_;
  u32 rx_period_;
  Cycle next_rx_ = 0;
  u32 rx_data_ = 0;
  bool rx_pending_ = false;
  u64 rx_frames_ = 0;
  u64 rx_overruns_ = 0;
  std::optional<Cycle> tx_done_at_;
  u64 tx_frames_ = 0;
  Cycle last_step_ = 0;
};

}  // namespace audo::periph
