// The Emulation Device: the unchanged product chip (soc::Soc) plus the
// Emulation Extension Chip — MCDS, EMEM and the ECerberus tool-access
// master behind the JTAG/DAP port (Figure 4).
//
// Two properties of the real ED are preserved structurally:
//  * the product chip part is *unchanged*: this class owns a Soc and
//    never modifies its behaviour — MCDS observation is read-only, and
//    turning the whole EEC off yields cycle-identical runs (test E10);
//  * the tool interface has finite bandwidth that does not scale with
//    CPU frequency (§5): the DAP drain budget is configured in bits/s
//    and converted to bytes per CPU cycle.
#pragma once

#include "common/status.hpp"
#include "ed/mli_bridge.hpp"
#include "emem/emem.hpp"
#include "mcds/mcds.hpp"
#include "soc/soc.hpp"

namespace audo::ed {

struct EdConfig {
  emem::EmemConfig emem;
  /// Tool-interface bandwidth. DAP over a robust 2-pin cable reaches a
  /// few tens of Mbit/s regardless of the CPU clock.
  u64 dap_bits_per_second = 40'000'000;
  /// Continuously drain the EMEM through the DAP while running
  /// (long-measurement mode); otherwise the EMEM buffers and the tool
  /// downloads after the run.
  bool stream_drain = false;
};

class EmulationDevice : private soc::FrameSink {
 public:
  EmulationDevice(const soc::SocConfig& soc_config, mcds::McdsConfig mcds_config,
                  EdConfig ed_config);

  soc::Soc& soc() { return soc_; }
  const soc::Soc& soc() const { return soc_; }
  mcds::Mcds& mcds() { return mcds_; }
  emem::Emem& emem() { return emem_; }
  MliBridge& mli() { return mli_; }
  const EdConfig& config() const { return config_; }

  Status load(const isa::Program& program) { return soc_.load(program); }
  void reset(Addr tc_entry, Addr pcp_entry = 0);

  /// One clock cycle: product chip, then EEC observation, then DAP drain.
  void step();

  /// Run until the TC halts, a trigger requests a break, the SoC
  /// deadlocks in an idle park, or `max_cycles` elapse; returns cycles
  /// run. This is soc::Soc::run with the EEC as its FrameSink, so the
  /// device stops exactly where the bare product chip stops (and
  /// kDefaultRunBudget caps it alike). `max_cycles` = 0 runs nothing.
  u64 run(u64 max_cycles);

  /// Bytes the DAP can move per CPU cycle (may be < 1).
  double dap_bytes_per_cycle() const;

  /// Bytes drained over the DAP so far (stream mode).
  u64 dap_bytes_drained() const { return dap_drained_; }

  // ---- tool access path (DAP -> ECerberus -> BBB -> product SRI) ----
  // These *do* occupy the product bus, exactly like a real monitor or
  // calibration access; they advance device time until completion.
  u32 tool_read32(Addr addr);
  void tool_write32(Addr addr, u32 value);

  /// Drain/download everything still in the EMEM and decode the full
  /// host-side unit stream into messages.
  Result<std::vector<mcds::TraceMessage>> download_trace();

  // ---- snapshot / restore --------------------------------------------

  /// Capture the whole device — product chip plus the EEC side (MCDS
  /// scheduling and counter bank, EMEM buffers, MLI streaming position,
  /// DAP drain accounting) — into one image. Requires the product chip
  /// to be quiescent (soc::Soc::save_snapshot); a counter group captured
  /// mid-resolution window resumes at the exact basis position.
  Result<soc::Snapshot> save_snapshot() const;

  /// Restore an image captured by save_snapshot() into this device (same
  /// SoC shape, same MCDS configuration, same loaded program). See
  /// soc::Soc::restore_snapshot for the failure contract.
  Status restore_snapshot(const soc::Snapshot& snap);

  // ---- host telemetry ------------------------------------------------

  /// Register the product chip's components plus the EEC side ("mcds",
  /// "emem", "dap"). Call once, after construction.
  void register_metrics(telemetry::MetricsRegistry& registry) const;

  /// Attach a timeline tracer to the product chip *and* feed it the
  /// EEC side (EMEM fill level, trace drops) each cycle.
  void set_tracer(soc::SocTracer* tracer) { soc_.set_tracer(tracer); }

  /// Attach a host phase profiler; the EEC observation path is timed as
  /// its own phase (kMcds) on top of the product-chip phases.
  void set_phase_probe(telemetry::PhaseProbe* probe) {
    soc_.set_phase_probe(probe);
  }

 private:
  // soc::FrameSink: the per-frame EEC work, for step() and Soc::run.
  bool on_frame(const mcds::ObservationFrame& frame) override;
  u64 idle_skip_limit(const mcds::ObservationFrame& idle) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  soc::Soc soc_;
  mcds::Mcds mcds_;
  EdConfig config_;
  emem::Emem emem_;
  MliBridge mli_;
  bus::MasterPort cerberus_port_;
  double drain_budget_ = 0.0;
  u64 dap_drained_ = 0;
};

}  // namespace audo::ed
