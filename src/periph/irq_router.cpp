#include "periph/irq_router.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace audo::periph {

void IrqRouter::register_metrics(telemetry::MetricsRegistry& registry,
                                 std::string_view component) const {
  for (const SrcNode& node : nodes_) {
    registry.counter(std::string(component), node.name + ".posted",
                     &node.posted);
    registry.counter(std::string(component), node.name + ".serviced",
                     &node.serviced);
    registry.counter(std::string(component), node.name + ".lost", &node.lost);
  }
}

unsigned IrqRouter::add_source(std::string name) {
  nodes_.push_back(SrcNode{std::move(name), 0, IrqTarget::kTc, false, false,
                           0, 0, 0});
  return static_cast<unsigned>(nodes_.size() - 1);
}

void IrqRouter::configure(unsigned src, u8 priority, IrqTarget target,
                          bool enabled) {
  SrcNode& node = nodes_.at(src);
  node.priority = priority;
  node.target = target;
  node.enabled = enabled;
  refresh_best();
}

void IrqRouter::post(unsigned src) {
  SrcNode& node = nodes_.at(src);
  node.posted++;
  if (node.pending) {
    node.lost++;  // previous request not yet serviced
    return;
  }
  node.pending = true;
  if (node.enabled) {
    u8& best = best_[static_cast<unsigned>(node.target)];
    best = std::max(best, node.priority);
  }
  if (node.enabled && node.priority > 0 &&
      raise_count_ < kMaxRaisesPerCycle) {
    raises_[raise_count_++] = Raise{node.priority, node.target};
  }
}

void IrqRouter::refresh_best() {
  best_.fill(0);
  for (const SrcNode& node : nodes_) {
    if (!node.pending || !node.enabled) continue;
    u8& best = best_[static_cast<unsigned>(node.target)];
    best = std::max(best, node.priority);
  }
}

void IrqRouter::View::acknowledge(u8 prio) {
  for (SrcNode& node : router_->nodes_) {
    if (node.pending && node.enabled && node.target == target_ &&
        node.priority == prio) {
      node.pending = false;
      node.serviced++;
      router_->refresh_best();
      return;
    }
  }
}

}  // namespace audo::periph
