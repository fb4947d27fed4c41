// The interrupt router: service request (SRC) nodes, as on TriCore SoCs.
//
// Each peripheral event posts to an SRC node; the node's configuration
// decides the priority and whether the TriCore-like core or the PCP
// services it. This HW/SW-partitioning knob — "software partitioning
// between TriCore and PCP cores" (§1) — is a first-class architecture
// option in the optimization study.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "cpu/cpu.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::periph {

enum class IrqTarget : u8 { kTc, kPcp, kDma };

class IrqRouter {
 public:
  struct SrcNode {
    std::string name;
    u8 priority = 0;       // 1..255; 0 = never delivered
    IrqTarget target = IrqTarget::kTc;
    bool enabled = false;
    bool pending = false;
    u64 posted = 0;        // lifetime posts
    u64 serviced = 0;      // lifetime acknowledges
    u64 lost = 0;          // posts that found the node already pending
  };

  /// Register a service request node; returns its id.
  unsigned add_source(std::string name);

  void configure(unsigned src, u8 priority, IrqTarget target,
                 bool enabled = true);

  /// Raise the service request (edge). A post while already pending is
  /// counted as lost — visible interrupt overload.
  void post(unsigned src);

  /// Newly-raised requests since the last take_raises() — the per-cycle
  /// strobe record Soc::step publishes as ObservationFrame::irq. Only
  /// enabled nodes with a nonzero priority are recorded (a disabled node
  /// can never cause a dispatch, so it is not a latency source).
  struct Raise {
    u8 priority = 0;
    IrqTarget target = IrqTarget::kTc;
  };
  static constexpr unsigned kMaxRaisesPerCycle = 4;

  /// Copy-and-clear the per-cycle raise record (called once per step).
  unsigned take_raises(Raise out[kMaxRaisesPerCycle]) {
    const unsigned n = raise_count_;
    for (unsigned i = 0; i < n; ++i) out[i] = raises_[i];
    raise_count_ = 0;
    return n;
  }
  bool raises_pending() const { return raise_count_ != 0; }

  /// Highest priority among pending, enabled nodes routed to `target`
  /// (0 = none). O(1): the router maintains it at every node mutation.
  u8 pending_priority(IrqTarget target) const {
    return best_[static_cast<unsigned>(target)];
  }

  const SrcNode& node(unsigned src) const { return nodes_.at(src); }
  unsigned source_count() const { return static_cast<unsigned>(nodes_.size()); }

  /// Register per-node post/service/lost counters under `component`
  /// (e.g. "irq"). Call after all sources are added; the registry keeps
  /// pointers into the node table.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

  /// Snapshot support: node configuration, pending bits and lifetime
  /// counters. Node names are construction wiring; the per-cycle raise
  /// record is empty at a quiescent capture point and cleared on restore.
  void save_state(snapshot::Writer& w) const {
    w.put_u32(static_cast<u32>(nodes_.size()));
    for (const SrcNode& n : nodes_) {
      w.put_u8(n.priority);
      w.put_u8(static_cast<u8>(n.target));
      w.put_bool(n.enabled);
      w.put_bool(n.pending);
      w.put_u64(n.posted);
      w.put_u64(n.serviced);
      w.put_u64(n.lost);
    }
  }
  void restore_state(snapshot::Reader& r) {
    if (r.get_u32() != nodes_.size() && r.ok()) {
      r.fail("irq source count mismatch");
      return;
    }
    for (SrcNode& n : nodes_) {
      n.priority = r.get_u8();
      n.target = static_cast<IrqTarget>(r.get_u8());
      n.enabled = r.get_bool();
      n.pending = r.get_bool();
      n.posted = r.get_u64();
      n.serviced = r.get_u64();
      n.lost = r.get_u64();
    }
    raise_count_ = 0;
    refresh_best();
  }

  /// Core-facing views. The DMA view makes the router able to trigger
  /// DMA channels directly, as the TriCore interrupt system can.
  cpu::IrqSource& tc_view() { return tc_view_; }
  cpu::IrqSource& pcp_view() { return pcp_view_; }
  cpu::IrqSource& dma_view() { return dma_view_; }

 private:
  class View final : public cpu::IrqSource {
   public:
    View(IrqRouter* router, IrqTarget target)
        : router_(router), target_(target) {}
    std::optional<u8> pending() const override {
      const u8 best = router_->pending_priority(target_);
      if (best == 0) return std::nullopt;
      return best;
    }
    void acknowledge(u8 prio) override;

   private:
    IrqRouter* router_;
    IrqTarget target_;
  };

  static constexpr unsigned kNumTargets = 3;

  /// Recompute best_ from the node table (after acknowledge, configure
  /// and restore; post only ever raises a target's best).
  void refresh_best();

  std::vector<SrcNode> nodes_;
  /// Per target: the highest priority among pending, enabled nodes
  /// (0 = none). Maintained at every node mutation so pending() — polled
  /// several times per cycle by the cores and the DMA — needs no scan.
  std::array<u8, kNumTargets> best_{};
  Raise raises_[kMaxRaisesPerCycle];
  unsigned raise_count_ = 0;
  View tc_view_{this, IrqTarget::kTc};
  View pcp_view_{this, IrqTarget::kPcp};
  View dma_view_{this, IrqTarget::kDma};
};

}  // namespace audo::periph
