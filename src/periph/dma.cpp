#include "periph/dma.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace audo::periph {

DmaController::DmaController(unsigned channels, bus::Crossbar* bus,
                             IrqRouter* router)
    : channels_(channels), bus_(bus), router_(router) {}

void DmaController::register_metrics(telemetry::MetricsRegistry& registry,
                                     std::string component) const {
  for (usize ch = 0; ch < channels_.size(); ++ch) {
    const std::string prefix = "ch" + std::to_string(ch) + ".";
    const ChannelStats& stats = channels_[ch].stats;
    registry.counter(component, prefix + "units", &stats.units);
    registry.counter(component, prefix + "blocks", &stats.blocks);
    registry.counter(component, prefix + "triggers", &stats.triggers);
  }
}

void DmaController::setup_channel(unsigned ch, const ChannelConfig& config,
                                  bool enabled) {
  Channel& c = channels_.at(ch);
  c.config = config;
  c.enabled = enabled;
  c.src = config.src;
  c.dst = config.dst;
  c.remaining = config.count;
  c.credit = 0;
  refresh_ready();
}

void DmaController::enable_channel(unsigned ch, bool enabled) {
  channels_.at(ch).enabled = enabled;
  refresh_ready();
}

void DmaController::trigger(unsigned ch) {
  Channel& c = channels_.at(ch);
  c.stats.triggers++;
  c.credit += c.config.units_per_trigger;
  refresh_ready();
}

void DmaController::set_done_src(unsigned ch, unsigned src_id) {
  channels_.at(ch).done_src = src_id;
}

bool DmaController::channel_idle(unsigned ch) const {
  const Channel& c = channels_.at(ch);
  const bool in_flight = phase_ != Phase::kIdle && active_ == ch;
  return !in_flight && (c.remaining == 0 || !c.enabled);
}

bool DmaController::channel_ready(const Channel& c) const {
  if (!c.enabled || c.remaining == 0) return false;
  if (c.config.units_per_trigger == 0) return true;  // free-running
  return c.credit > 0;
}

void DmaController::refresh_ready() {
  any_ready_ = std::any_of(channels_.begin(), channels_.end(),
                           [this](const Channel& c) { return channel_ready(c); });
}

void DmaController::reload(Channel& c) {
  c.src = c.config.src;
  c.dst = c.config.dst;
  c.remaining = c.config.count;
}

void DmaController::step(Cycle now) {
  observation_ = mcds::DmaObservation{};
  if (quiescent()) return;

  // Router-driven triggers: priority p pending on the DMA view releases
  // channel p-1.
  if (router_ != nullptr) {
    while (const auto prio = router_->dma_view().pending()) {
      router_->dma_view().acknowledge(*prio);
      const unsigned ch = *prio - 1;
      if (ch < channels_.size()) trigger(ch);
    }
  }

  switch (phase_) {
    case Phase::kIdle: break;
    case Phase::kRead:
      if (port_.done()) {
        unit_data_ = port_.take_rdata();
        Channel& c = channels_[active_];
        bus::BusRequest req;
        req.master = bus::MasterId::kDma;
        req.addr = c.dst;
        req.kind = bus::AccessKind::kWrite;
        req.bytes = c.config.bytes;
        req.wdata = unit_data_;
        if (bus_->issue(port_, req, now)) {
          phase_ = Phase::kWrite;
        } else {
          phase_ = Phase::kIdle;  // unmapped destination: unit dropped
        }
      }
      return;  // at most one bus action per cycle
    case Phase::kWrite:
      if (port_.done()) {
        port_.take_rdata();
        Channel& c = channels_[active_];
        c.stats.units++;
        c.src = static_cast<Addr>(c.src + c.config.src_step);
        c.dst = static_cast<Addr>(c.dst + c.config.dst_step);
        if (c.remaining > 0) --c.remaining;
        if (c.config.units_per_trigger != 0 && c.credit > 0) --c.credit;
        observation_.transfer = true;
        observation_.channel = static_cast<u8>(active_);
        if (c.remaining == 0) {
          c.stats.blocks++;
          if (c.done_src != ~0u && router_ != nullptr) {
            router_->post(c.done_src);
          }
          if (c.config.continuous) reload(c);
        }
        refresh_ready();
        phase_ = Phase::kIdle;
      }
      return;
  }

  // Idle: arbitrate the next ready channel (round robin) and start its
  // read transaction.
  if (bus_ == nullptr || channels_.empty()) return;
  for (unsigned i = 0; i < channels_.size(); ++i) {
    const unsigned ch = (rr_next_ + i) % channels_.size();
    Channel& c = channels_[ch];
    if (!channel_ready(c)) continue;
    bus::BusRequest req;
    req.master = bus::MasterId::kDma;
    req.addr = c.src;
    req.kind = bus::AccessKind::kRead;
    req.bytes = c.config.bytes;
    if (bus_->issue(port_, req, now)) {
      phase_ = Phase::kRead;
      active_ = ch;
      rr_next_ = (ch + 1) % channels_.size();
    }
    return;
  }
}

u32 DmaController::read_sfr(u32 offset) {
  const unsigned ch = offset / 0x20;
  const u32 reg = offset % 0x20;
  if (ch >= channels_.size()) return 0;
  const Channel& c = channels_[ch];
  switch (reg) {
    case 0x00: return c.src;
    case 0x04: return c.dst;
    case 0x08: return c.remaining;
    case 0x0C:
      return (c.enabled ? 1u : 0u) | (c.config.continuous ? 2u : 0u) |
             (static_cast<u32>(c.config.bytes == 4 ? 2 : c.config.bytes == 2 ? 1 : 0) << 8);
    default: return 0;
  }
}

void DmaController::write_sfr(u32 offset, u32 value) {
  const unsigned ch = offset / 0x20;
  const u32 reg = offset % 0x20;
  if (ch >= channels_.size()) return;
  Channel& c = channels_[ch];
  switch (reg) {
    case 0x00: c.src = value; c.config.src = value; break;
    case 0x04: c.dst = value; c.config.dst = value; break;
    case 0x08: c.remaining = value; c.config.count = value; break;
    case 0x0C:
      c.enabled = (value & 1) != 0;
      c.config.continuous = (value & 2) != 0;
      c.config.bytes = static_cast<u8>(1u << ((value >> 8) & 3));
      break;
    case 0x10: trigger(ch); break;
    default: break;
  }
  refresh_ready();
}

}  // namespace audo::periph
