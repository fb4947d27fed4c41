// Activity-proportional bookkeeping must equal the brute-force definitions
// it replaces. The interrupt router answers pending() from per-target
// state it maintains on every node mutation, the crossbar steps only the
// transactions in flight, and the DMA controller answers quiescent() from
// a cached any-channel-ready flag; each is checked here against a
// reference that scans everything, on seeded random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/crossbar.hpp"
#include "common/prng.hpp"
#include "common/snapshot.hpp"
#include "helpers.hpp"
#include "mem/memory_map.hpp"
#include "periph/dma.hpp"
#include "periph/irq_router.hpp"

namespace audo {
namespace {

// ---------------------------------------------------------------------
// IrqRouter::View::pending() vs a scan of every node.

using periph::IrqRouter;
using periph::IrqTarget;

constexpr IrqTarget kTargets[] = {IrqTarget::kTc, IrqTarget::kPcp,
                                  IrqTarget::kDma};

std::optional<u8> scan_pending(const IrqRouter& router, IrqTarget target) {
  u8 best = 0;
  for (unsigned i = 0; i < router.source_count(); ++i) {
    const IrqRouter::SrcNode& node = router.node(i);
    if (node.pending && node.enabled && node.target == target) {
      best = std::max(best, node.priority);
    }
  }
  if (best == 0) return std::nullopt;
  return best;
}

cpu::IrqSource& view_of(IrqRouter& router, IrqTarget target) {
  switch (target) {
    case IrqTarget::kTc: return router.tc_view();
    case IrqTarget::kPcp: return router.pcp_view();
    case IrqTarget::kDma: break;
  }
  return router.dma_view();
}

class IrqPendingEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(IrqPendingEquivalence, MaintainedStateEqualsNodeScan) {
  constexpr unsigned kNodes = 12;
  Prng prng(GetParam());
  IrqRouter router;
  for (unsigned i = 0; i < kNodes; ++i) {
    router.add_source("src" + std::to_string(i));
  }
  // Few distinct priorities, so several nodes often share one (acknowledge
  // then clears only the first match) and a 0 priority shows up.
  const auto random_prio = [&] { return static_cast<u8>(prng.next_below(6)); };
  const auto random_target = [&] { return kTargets[prng.next_below(3)]; };

  unsigned acks = 0;
  unsigned restores = 0;
  for (unsigned op = 0; op < 4000; ++op) {
    const u64 kind = prng.next_below(100);
    if (kind < 40) {
      router.post(static_cast<unsigned>(prng.next_below(kNodes)));
    } else if (kind < 70) {
      const IrqTarget target = random_target();
      cpu::IrqSource& view = view_of(router, target);
      // Mostly acknowledge what is pending (the cores' and the DMA's
      // pattern), sometimes a priority that may match nothing.
      const std::optional<u8> prio = view.pending();
      view.acknowledge(prio.has_value() && prng.chance(0.8) ? *prio
                                                            : random_prio());
      ++acks;
    } else if (kind < 90) {
      router.configure(static_cast<unsigned>(prng.next_below(kNodes)),
                       random_prio(), random_target(), prng.chance(0.75));
    } else if (kind < 97) {
      IrqRouter::Raise raised[IrqRouter::kMaxRaisesPerCycle];
      router.take_raises(raised);
    } else {
      // Snapshot round trip into a fresh router; continue on the copy.
      snapshot::Writer w;
      router.save_state(w);
      IrqRouter restored;
      for (unsigned i = 0; i < kNodes; ++i) {
        restored.add_source("src" + std::to_string(i));
      }
      snapshot::Reader r(w.bytes());
      restored.restore_state(r);
      ASSERT_TRUE(r.ok());
      for (const IrqTarget target : kTargets) {
        ASSERT_EQ(view_of(restored, target).pending(),
                  scan_pending(restored, target))
            << "after restore, op " << op;
      }
      snapshot::Reader back(w.bytes());
      router.restore_state(back);
      ASSERT_TRUE(back.ok());
      ++restores;
    }
    for (const IrqTarget target : kTargets) {
      const std::optional<u8> want = scan_pending(router, target);
      ASSERT_EQ(view_of(router, target).pending(), want)
          << "op " << op << " target " << static_cast<int>(target);
      ASSERT_EQ(router.pending_priority(target), want.value_or(0))
          << "op " << op << " target " << static_cast<int>(target);
    }
  }
  EXPECT_GT(acks, 500u);
  EXPECT_GT(restores, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrqPendingEquivalence,
                         ::testing::Values(u64{1}, u64{7}, u64{42}, u64{2024}));

// ---------------------------------------------------------------------
// Crossbar vs a reference model that scans every slave and master each
// cycle, in the order the fabric's contract fixes: phase 1 progresses
// active transactions, phase 2 arbitrates, both in ascending slave order.

constexpr unsigned kSlaves = 5;
constexpr u32 kSlaveWindow = 0x1000;

/// Deterministic latency per (slave, address): the real slave and the
/// reference model agree on it without sharing state.
unsigned latency_of(unsigned slave, Addr addr) {
  return 1 + (slave * 3 + (addr >> 2)) % (slave + 2);
}
u32 read_data_of(Addr addr) { return addr ^ 0x5A5A0000u; }

class ModelSlave final : public bus::BusSlave {
 public:
  explicit ModelSlave(unsigned index)
      : index_(index), name_("m" + std::to_string(index)) {}
  unsigned start_access(const bus::BusRequest& req) override {
    return latency_of(index_, req.addr);
  }
  u32 complete_access(const bus::BusRequest& req) override {
    return read_data_of(req.addr);
  }
  std::string_view name() const override { return name_; }

 private:
  unsigned index_;
  std::string name_;
};

class ReferenceFabric {
 public:
  struct Port {
    enum class State : u8 { kIdle, kWaiting, kActive, kDone } state =
        State::kIdle;
    bus::BusRequest req;
    unsigned slave = 0;
    unsigned remaining = 0;
    Cycle issued_at = 0;
    Cycle granted_at = 0;
    bool error = false;
    u32 rdata = 0;
  };

  ReferenceFabric(bus::ArbitrationPolicy policy,
                  std::array<bus::MasterId, bus::kNumMasters> order)
      : policy_(policy), order_(order) {
    interference_.assign(kSlaves * bus::kNumMasters * bus::kNumMasters, 0);
    blocked_by_.fill(bus::MasterId::kCount);
    blocked_slave_.fill(0xFF);
  }

  void issue(const bus::BusRequest& req, Cycle now) {
    Port& p = ports_[static_cast<unsigned>(req.master)];
    p = Port{};
    p.state = Port::State::kWaiting;
    p.req = req;
    p.slave = req.addr / kSlaveWindow;
    p.issued_at = now;
  }
  void take(bus::MasterId m) { ports_[static_cast<unsigned>(m)] = Port{}; }
  void inject(unsigned slave, u64 count) { slaves_[slave].error_arm += count; }

  bool idle() const {
    for (const Port& p : ports_) {
      if (p.state == Port::State::kWaiting || p.state == Port::State::kActive) {
        return false;
      }
    }
    return std::none_of(slaves_.begin(), slaves_.end(),
                        [](const Slave& s) { return s.active >= 0; });
  }

  void step(Cycle now) {
    obs_ = bus::FabricObservation{};
    blocked_by_.fill(bus::MasterId::kCount);
    blocked_slave_.fill(0xFF);
    for (unsigned s = 0; s < kSlaves; ++s) {
      if (slaves_[s].active >= 0) progress(s);
    }
    for (unsigned s = 0; s < kSlaves; ++s) {
      Slave& slave = slaves_[s];
      std::vector<unsigned> waiters;
      for (unsigned m = 0; m < bus::kNumMasters; ++m) {
        if (ports_[m].state == Port::State::kWaiting && ports_[m].slave == s) {
          waiters.push_back(m);
          stats_[s].wait_cycles++;
        }
      }
      if (waiters.empty()) continue;
      obs_.waiting_masters += static_cast<unsigned>(waiters.size());
      const bool busy = slave.active >= 0;
      if (waiters.size() > 1 || busy) {
        obs_.contention = true;
        stats_[s].contention_cycles++;
      }
      if (busy) {
        for (unsigned w : waiters) block(w, static_cast<unsigned>(slave.active), s);
        continue;
      }
      unsigned winner = bus::kNumMasters;
      for (unsigned i = 0; i < bus::kNumMasters && winner == bus::kNumMasters;
           ++i) {
        const unsigned m =
            policy_ == bus::ArbitrationPolicy::kFixedPriority
                ? static_cast<unsigned>(order_[i])
                : (slave.rr_next + i) % bus::kNumMasters;
        if (std::find(waiters.begin(), waiters.end(), m) != waiters.end()) {
          winner = m;
        }
      }
      ASSERT_LT(winner, bus::kNumMasters);
      if (policy_ == bus::ArbitrationPolicy::kRoundRobin) {
        slave.rr_next = (winner + 1) % bus::kNumMasters;
      }
      for (unsigned w : waiters) {
        if (w != winner) block(w, winner, s);
      }
      Port& p = ports_[winner];
      p.state = Port::State::kActive;
      p.remaining = std::max(1u, latency_of(s, p.req.addr));
      p.granted_at = now;
      slave.active = static_cast<int>(winner);
      stats_[s].grants++;
      (p.req.kind == bus::AccessKind::kWrite ? stats_[s].writes
                                             : stats_[s].reads)++;
      progress(s);
      if (!obs_.any_grant) {
        obs_.any_grant = true;
        obs_.granted_master = p.req.master;
        obs_.granted_slave = s;
        obs_.granted_addr = p.req.addr;
        obs_.granted_write = p.req.kind == bus::AccessKind::kWrite;
      }
    }
  }

  const Port& port(unsigned m) const { return ports_[m]; }
  const bus::FabricObservation& observation() const { return obs_; }
  const bus::SlaveStats& stats(unsigned s) const { return stats_[s]; }
  bus::MasterId blocked_by(unsigned m) const { return blocked_by_[m]; }
  u8 blocked_slave(unsigned m) const { return blocked_slave_[m]; }
  u64 interference(unsigned waiter, unsigned holder, unsigned s) const {
    return interference_[(s * bus::kNumMasters + waiter) * bus::kNumMasters +
                         holder];
  }

 private:
  struct Slave {
    int active = -1;  // master index being served
    unsigned rr_next = 0;
    u64 error_arm = 0;
  };

  void block(unsigned waiter, unsigned holder, unsigned s) {
    blocked_by_[waiter] = static_cast<bus::MasterId>(holder);
    blocked_slave_[waiter] = static_cast<u8>(s);
    interference_[(s * bus::kNumMasters + waiter) * bus::kNumMasters +
                  holder]++;
  }

  void progress(unsigned s) {
    Slave& slave = slaves_[s];
    stats_[s].busy_cycles++;
    Port& p = ports_[static_cast<unsigned>(slave.active)];
    if (--p.remaining != 0) return;
    if (slave.error_arm > 0) {
      --slave.error_arm;
      stats_[s].error_responses++;
      p.rdata = 0;
      p.error = true;
      obs_.error_response = true;
      obs_.error_master = p.req.master;
    } else {
      p.rdata = read_data_of(p.req.addr);
    }
    p.state = Port::State::kDone;
    slave.active = -1;
    obs_.completed[obs_.completed_count++] = bus::CompletedTransaction{
        p.req.master, static_cast<u8>(s), p.req.addr,
        p.req.kind == bus::AccessKind::kWrite, p.req.fetch, p.issued_at,
        p.granted_at};
  }

  bus::ArbitrationPolicy policy_;
  std::array<bus::MasterId, bus::kNumMasters> order_;
  std::array<Port, bus::kNumMasters> ports_{};
  std::array<Slave, kSlaves> slaves_{};
  std::array<bus::SlaveStats, kSlaves> stats_{};
  std::vector<u64> interference_;
  std::array<bus::MasterId, bus::kNumMasters> blocked_by_{};
  std::array<u8, bus::kNumMasters> blocked_slave_{};
  bus::FabricObservation obs_;
};

void expect_same_observation(const bus::FabricObservation& got,
                             const bus::FabricObservation& want, Cycle now) {
  ASSERT_EQ(got.any_grant, want.any_grant) << "cycle " << now;
  if (want.any_grant) {
    ASSERT_EQ(got.granted_master, want.granted_master) << "cycle " << now;
    ASSERT_EQ(got.granted_slave, want.granted_slave) << "cycle " << now;
    ASSERT_EQ(got.granted_addr, want.granted_addr) << "cycle " << now;
    ASSERT_EQ(got.granted_write, want.granted_write) << "cycle " << now;
  }
  ASSERT_EQ(got.contention, want.contention) << "cycle " << now;
  ASSERT_EQ(got.waiting_masters, want.waiting_masters) << "cycle " << now;
  ASSERT_EQ(got.error_response, want.error_response) << "cycle " << now;
  ASSERT_EQ(got.error_master, want.error_master) << "cycle " << now;
  ASSERT_EQ(got.completed_count, want.completed_count) << "cycle " << now;
  for (unsigned i = 0; i < want.completed_count; ++i) {
    const bus::CompletedTransaction& a = got.completed[i];
    const bus::CompletedTransaction& b = want.completed[i];
    ASSERT_EQ(a.master, b.master) << "cycle " << now << " completion " << i;
    ASSERT_EQ(a.slave, b.slave) << "cycle " << now << " completion " << i;
    ASSERT_EQ(a.addr, b.addr) << "cycle " << now << " completion " << i;
    ASSERT_EQ(a.write, b.write) << "cycle " << now << " completion " << i;
    ASSERT_EQ(a.fetch, b.fetch) << "cycle " << now << " completion " << i;
    ASSERT_EQ(a.issued_at, b.issued_at) << "cycle " << now;
    ASSERT_EQ(a.granted_at, b.granted_at) << "cycle " << now;
  }
}

struct FabricCase {
  bus::ArbitrationPolicy policy;
  u64 seed;
};

// Names the ctest case; the default printout would dump padding bytes.
void PrintTo(const FabricCase& c, std::ostream* os) {
  *os << (c.policy == bus::ArbitrationPolicy::kFixedPriority ? "fixed"
                                                             : "round_robin")
      << "_seed" << c.seed;
}

class CrossbarEquivalence : public ::testing::TestWithParam<FabricCase> {};

TEST_P(CrossbarEquivalence, MatchesFullScanReferenceModel) {
  const FabricCase param = GetParam();
  Prng prng(param.seed);

  // A random fixed-priority order, so the arbiter's order table is used.
  std::array<bus::MasterId, bus::kNumMasters> order{};
  for (unsigned m = 0; m < bus::kNumMasters; ++m) {
    order[m] = static_cast<bus::MasterId>(m);
  }
  for (unsigned i = bus::kNumMasters - 1; i > 0; --i) {
    std::swap(order[i], order[prng.next_below(i + 1)]);
  }

  bus::Crossbar fabric(param.policy);
  std::vector<std::unique_ptr<ModelSlave>> slaves;
  for (unsigned s = 0; s < kSlaves; ++s) {
    slaves.push_back(std::make_unique<ModelSlave>(s));
    ASSERT_EQ(fabric.add_slave(slaves.back().get()), s);
    ASSERT_TRUE(fabric.map_region(s * kSlaveWindow, kSlaveWindow, s).is_ok());
  }
  fabric.set_priority_order(std::vector<bus::MasterId>(order.begin(), order.end()));
  ReferenceFabric ref(param.policy, order);

  std::array<bus::MasterPort, bus::kNumMasters> ports;
  // Bursty traffic: quiet stretches (the fabric goes idle) alternate with
  // busy ones where several masters pile onto few slaves.
  double issue_chance = 0.3;
  u64 completions = 0;
  u64 errors = 0;
  u64 idle_cycles = 0;
  u64 contended = 0;
  for (Cycle now = 1; now <= 6000; ++now) {
    if (now % 200 == 0) {
      issue_chance = prng.chance(0.3) ? 0.0 : prng.chance(0.5) ? 0.7 : 0.1;
    }
    if (prng.chance(0.01)) {
      const unsigned s = static_cast<unsigned>(prng.next_below(kSlaves));
      const u64 count = 1 + prng.next_below(3);
      fabric.inject_slave_errors(s, count);
      ref.inject(s, count);
    }
    for (unsigned m = 0; m < bus::kNumMasters; ++m) {
      const auto id = static_cast<bus::MasterId>(m);
      if (ports[m].done()) {
        ASSERT_EQ(ref.port(m).state, ReferenceFabric::Port::State::kDone);
        ASSERT_EQ(ports[m].error(), ref.port(m).error) << "cycle " << now;
        errors += ports[m].error() ? 1 : 0;
        ASSERT_EQ(ports[m].take_rdata(), ref.port(m).rdata) << "cycle " << now;
        ref.take(id);
        ++completions;
      }
      if (ports[m].idle() && prng.chance(issue_chance)) {
        bus::BusRequest req;
        req.master = id;
        // Skewed slave choice: low slaves are hot.
        const unsigned s = static_cast<unsigned>(
            std::min(prng.next_below(kSlaves), prng.next_below(kSlaves)));
        req.addr = static_cast<Addr>(s * kSlaveWindow + prng.next_below(0x100) * 4);
        req.kind = prng.chance(0.3) ? bus::AccessKind::kWrite
                                    : bus::AccessKind::kRead;
        req.fetch = id == bus::MasterId::kTcFetch;
        ASSERT_TRUE(fabric.issue(ports[m], req, now));
        ref.issue(req, now);
      }
    }
    fabric.step(now);
    ref.step(now);

    ASSERT_EQ(fabric.idle(), ref.idle()) << "cycle " << now;
    idle_cycles += fabric.idle() ? 1 : 0;
    contended += ref.observation().contention ? 1 : 0;
    expect_same_observation(fabric.observation(), ref.observation(), now);
    for (unsigned m = 0; m < bus::kNumMasters; ++m) {
      const auto id = static_cast<bus::MasterId>(m);
      ASSERT_EQ(fabric.blocked_by(id), ref.blocked_by(m)) << "cycle " << now;
      ASSERT_EQ(fabric.blocked_slave(id), ref.blocked_slave(m))
          << "cycle " << now;
    }
    for (unsigned s = 0; s < kSlaves; ++s) {
      const bus::SlaveStats& a = fabric.slave_stats(s);
      const bus::SlaveStats& b = ref.stats(s);
      ASSERT_EQ(a.grants, b.grants) << "cycle " << now << " slave " << s;
      ASSERT_EQ(a.reads, b.reads) << "cycle " << now << " slave " << s;
      ASSERT_EQ(a.writes, b.writes) << "cycle " << now << " slave " << s;
      ASSERT_EQ(a.wait_cycles, b.wait_cycles) << "cycle " << now;
      ASSERT_EQ(a.busy_cycles, b.busy_cycles) << "cycle " << now;
      ASSERT_EQ(a.contention_cycles, b.contention_cycles) << "cycle " << now;
      ASSERT_EQ(a.error_responses, b.error_responses) << "cycle " << now;
    }
  }
  for (unsigned s = 0; s < kSlaves; ++s) {
    for (unsigned w = 0; w < bus::kNumMasters; ++w) {
      for (unsigned h = 0; h < bus::kNumMasters; ++h) {
        EXPECT_EQ(fabric.interference(static_cast<bus::MasterId>(w),
                                      static_cast<bus::MasterId>(h), s),
                  ref.interference(w, h, s))
            << "slave " << s << " waiter " << w << " holder " << h;
      }
    }
  }
  // The sequence exercised what it is meant to.
  EXPECT_GT(completions, 2000u);
  EXPECT_GT(errors, 10u);
  EXPECT_GT(idle_cycles, 200u);
  EXPECT_GT(contended, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CrossbarEquivalence,
    ::testing::Values(FabricCase{bus::ArbitrationPolicy::kFixedPriority, 3},
                      FabricCase{bus::ArbitrationPolicy::kFixedPriority, 99},
                      FabricCase{bus::ArbitrationPolicy::kRoundRobin, 3},
                      FabricCase{bus::ArbitrationPolicy::kRoundRobin, 99}));

// ---------------------------------------------------------------------
// DmaController::quiescent() vs a scan of every channel. A refresh of the
// cached ready flag missed by some mutation path would park a ready
// channel forever (step() returns early on a quiescent controller), so
// every path that changes a channel is driven here: harness setup,
// enable and trigger, the SFR window, router triggers, transfers and
// block completions under step(), and state restore.

using periph::DmaController;

bool scan_dma_quiescent(soc::Soc& soc) {
  const DmaController& dma = soc.dma();
  if (dma.unit_in_flight()) return false;
  for (unsigned ch = 0; ch < dma.channel_count(); ++ch) {
    if (dma.channel_ready(ch)) return false;
  }
  return soc.irq_router().pending_priority(IrqTarget::kDma) == 0;
}

class DmaQuiescentEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(DmaQuiescentEquivalence, CachedReadyFlagEqualsChannelScan) {
  Prng prng(GetParam());
  soc::Soc soc(test::small_config());
  soc.reset(0x80000000);  // the TC halts at once; the DMA keeps running
  DmaController& dma = soc.dma();
  IrqRouter& router = soc.irq_router();
  const unsigned channels = dma.channel_count();
  ASSERT_GE(channels, 2u);
  // Router nodes the sequence reconfigures as DMA triggers (priority
  // p releases channel p - 1).
  const unsigned nodes[] = {soc.srcs().stm0, soc.srcs().stm1,
                            soc.srcs().can_rx, soc.srcs().can_tx};
  const auto random_channel = [&] {
    return static_cast<unsigned>(prng.next_below(channels));
  };
  const auto random_count = [&] {
    return static_cast<u32>(prng.next_below(4));
  };

  std::vector<u8> saved;  // a DMA state captured with no unit in flight
  u64 units = 0;
  unsigned quiet = 0;
  unsigned restores = 0;
  for (unsigned op = 0; op < 3000; ++op) {
    const u64 kind = prng.next_below(100);
    const unsigned ch = random_channel();
    if (kind < 12) {
      DmaController::ChannelConfig cfg;
      cfg.src = mem::kLmuBase + 0x40 * ch;
      cfg.dst = mem::kDsprBase + 0x400 + 0x40 * ch;
      cfg.count = random_count();
      cfg.units_per_trigger = static_cast<u32>(prng.next_below(3));
      cfg.continuous = prng.chance(0.3);
      dma.setup_channel(ch, cfg, prng.chance(0.7));
    } else if (kind < 20) {
      dma.enable_channel(ch, prng.chance(0.6));
    } else if (kind < 28) {
      dma.trigger(ch);
    } else if (kind < 40) {
      const u32 base = 0x20 * ch;
      switch (prng.next_below(3)) {
        case 0: dma.write_sfr(base + 0x08, random_count()); break;
        case 1:
          dma.write_sfr(base + 0x0C, (prng.chance(0.6) ? 1u : 0u) |
                                         (prng.chance(0.3) ? 2u : 0u) |
                                         (2u << 8));
          break;
        default: dma.write_sfr(base + 0x10, 1); break;
      }
    } else if (kind < 50) {
      const unsigned node = nodes[prng.next_below(4)];
      router.configure(node, static_cast<u8>(prng.next_below(channels + 2)),
                       IrqTarget::kDma, prng.chance(0.8));
      router.post(node);
    } else if (kind < 92) {
      const u64 cycles = 1 + prng.next_below(6);
      for (u64 c = 0; c < cycles; ++c) {
        soc.step();
        ASSERT_EQ(dma.quiescent(), scan_dma_quiescent(soc))
            << "op " << op << " step " << c;
      }
    } else if (!dma.unit_in_flight()) {
      if (saved.empty() || prng.chance(0.5)) {
        snapshot::Writer w;
        dma.save_state(w);
        saved = w.bytes();
      } else {
        snapshot::Reader r(saved);
        dma.restore_state(r);
        ASSERT_TRUE(r.ok());
        ++restores;
      }
    }
    const bool want = scan_dma_quiescent(soc);
    ASSERT_EQ(dma.quiescent(), want) << "op " << op << " kind " << kind;
    if (want) ++quiet;
  }
  for (unsigned ch = 0; ch < channels; ++ch) units += dma.stats(ch).units;
  // The sequence exercised what it is meant to: transfers ran, the
  // controller went quiet and came back, and states were restored.
  EXPECT_GT(units, 20u);
  EXPECT_GT(quiet, 100u);
  EXPECT_LT(quiet, 2900u);
  EXPECT_GT(restores, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaQuiescentEquivalence,
                         ::testing::Values(u64{1}, u64{7}, u64{42}, u64{2024}));

}  // namespace
}  // namespace audo
