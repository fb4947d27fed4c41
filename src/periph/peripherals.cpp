#include "periph/peripherals.hpp"

#include <algorithm>

namespace audo::periph {

// ---------------------------------------------------------------- Stm --

void Stm::step(Cycle now) {
  (void)now;
  ++counter_;
  for (int i = 0; i < 2; ++i) {
    if ((ctrl_ & (1u << i)) != 0 && period_[i] != 0 &&
        counter_ >= next_fire_[i]) {
      router_->post(src_[i]);
      next_fire_[i] += period_[i];
    }
  }
}

u32 Stm::read_sfr(u32 offset) {
  switch (offset) {
    case 0x00: return static_cast<u32>(counter_);
    case 0x04: return static_cast<u32>(counter_ >> 32);
    case 0x08: return period_[0];
    case 0x0C: return period_[1];
    case 0x10: return ctrl_;
    default: return 0;
  }
}

void Stm::write_sfr(u32 offset, u32 value) {
  switch (offset) {
    case 0x08:
      period_[0] = value;
      next_fire_[0] = counter_ + value;
      break;
    case 0x0C:
      period_[1] = value;
      next_fire_[1] = counter_ + value;
      break;
    case 0x10:
      ctrl_ = value & 0x3;
      break;
    default:
      break;
  }
}

// ----------------------------------------------------------- Watchdog --

void Watchdog::step(Cycle now) {
  (void)now;
  if (period_ == 0) return;
  if (remaining_ == 0 || --remaining_ == 0) {
    ++timeouts_;
    router_->post(src_timeout_);
    remaining_ = period_;
  }
}

u32 Watchdog::read_sfr(u32 offset) {
  switch (offset) {
    case 0x00: return remaining_;
    case 0x04: return period_;
    case 0x08: return window_;
    default: return 0;
  }
}

void Watchdog::write_sfr(u32 offset, u32 value) {
  switch (offset) {
    case 0x00:
      if (value != kServiceKey) {
        ++bad_services_;
        break;
      }
      if (period_ != 0 && window_ != 0 && remaining_ > window_) {
        // Serviced before the window opened: a violation, handled like
        // a timeout so a runaway fast loop cannot keep the dog quiet.
        ++early_services_;
        ++timeouts_;
        router_->post(src_timeout_);
      }
      remaining_ = period_;
      break;
    case 0x04:
      period_ = value;
      remaining_ = value;
      break;
    case 0x08:
      window_ = value;
      break;
    default:
      break;
  }
}

// --------------------------------------------------------- CrankWheel --

void CrankWheel::recompute_period() {
  // cycles/tooth = clock / (rpm/60 * teeth), compressed by time_scale.
  const u64 teeth_per_second =
      static_cast<u64>(rpm_) * config_.teeth / 60u;
  cycles_per_tooth_ =
      config_.clock_hz /
      (std::max<u64>(1, teeth_per_second) * std::max<u32>(1, config_.time_scale));
  if (cycles_per_tooth_ == 0) cycles_per_tooth_ = 1;
  if (countdown_ > cycles_per_tooth_) countdown_ = cycles_per_tooth_;
}

void CrankWheel::step(Cycle now) {
  if (--countdown_ != 0) return;
  countdown_ = cycles_per_tooth_;
  tooth_ = (tooth_ + 1) % config_.teeth;
  if (tooth_ == 0) {
    ++revs_;
    router_->post(src_sync_);  // gap detected: revolution sync point
  }
  // The missing teeth at the end of the wheel produce no tooth edge.
  if (tooth_ < config_.teeth - config_.missing) {
    last_tooth_cycle_ = now;
    router_->post(src_tooth_);
  }
}

u32 CrankWheel::read_sfr(u32 offset) {
  switch (offset) {
    case 0x00: return rpm_;
    case 0x04: return tooth_;
    case 0x08: return static_cast<u32>(revs_);
    case 0x0C:  // crank angle, degrees * 256
      return static_cast<u32>((tooth_ * 360u * 256u) / config_.teeth);
    case 0x10:  // last tooth-edge cycle (ISR latency reference)
      return static_cast<u32>(last_tooth_cycle_);
    default: return 0;
  }
}

void CrankWheel::write_sfr(u32 offset, u32 value) {
  if (offset == 0x00) set_rpm(value);
}

// ---------------------------------------------------------------- Adc --

u32 Adc::sample(Cycle now) {
  // Deterministic pseudo-sensor: triangle wave (e.g. manifold pressure
  // over the engine cycle) plus bounded noise.
  const u32 phase = static_cast<u32>(now / 64) % 2048;
  const u32 tri = phase < 1024 ? phase : 2048 - phase;
  const u32 noise = static_cast<u32>(prng_.next_below(16));
  return 1024 + tri + noise + channel_ * 7;
}

void Adc::step(Cycle now) {
  last_step_ = now;
  if (period_ != 0 && now >= next_auto_) {
    next_auto_ = now + period_;
    if (!done_at_) done_at_ = now + config_.conversion_cycles;
  }
  if (done_at_ && now >= *done_at_) {
    done_at_.reset();
    result_ = sample(now);
    ++conversions_;
    router_->post(src_done_);
  }
}

u32 Adc::read_sfr(u32 offset) {
  switch (offset) {
    case 0x04: return result_;
    case 0x08: return period_;
    case 0x0C: return channel_;
    default: return 0;
  }
}

void Adc::write_sfr(u32 offset, u32 value) {
  switch (offset) {
    case 0x00:
      if (!done_at_) done_at_ = last_step_ + config_.conversion_cycles;
      break;
    case 0x08:
      period_ = value;
      next_auto_ = last_step_ + value;
      break;
    case 0x0C:
      channel_ = value & 0xF;
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------ CanLite --

void CanLite::step(Cycle now) {
  last_step_ = now;
  if (rx_period_ != 0 && now >= next_rx_) {
    next_rx_ = now + rx_period_;
    if (rx_pending_) {
      ++rx_overruns_;  // software too slow; frame lost
    }
    rx_data_ = static_cast<u32>(++rx_frames_);
    rx_pending_ = true;
    router_->post(src_rx_);
  }
  if (tx_done_at_ && now >= *tx_done_at_) {
    tx_done_at_.reset();
    ++tx_frames_;
    router_->post(src_tx_);
  }
}

u32 CanLite::read_sfr(u32 offset) {
  switch (offset) {
    case 0x04: return tx_done_at_ ? 1 : 0;
    case 0x08:
      rx_pending_ = false;
      return rx_data_;
    case 0x0C: return rx_pending_ ? 1 : 0;
    case 0x10: return rx_period_;
    default: return 0;
  }
}

void CanLite::write_sfr(u32 offset, u32 value) {
  switch (offset) {
    case 0x00:
      if (!tx_done_at_) tx_done_at_ = last_step_ + config_.tx_cycles;
      break;
    case 0x10:
      rx_period_ = value;
      next_rx_ = last_step_ + value;
      break;
    default:
      break;
  }
}

}  // namespace audo::periph
