// ProfilingSession: the user-facing harness of the Enhanced System
// Profiling methodology.
//
// Wraps an Emulation Device with a measurement specification, runs the
// target application, downloads the trace over the (bandwidth-limited)
// DAP model and reconstructs the parameter time series — the full §5
// workflow as one object.
#pragma once

#include <memory>
#include <optional>

#include "ed/emulation_device.hpp"
#include "profiling/cpi_stack.hpp"
#include "profiling/dag.hpp"
#include "profiling/spec.hpp"
#include "profiling/timeseries.hpp"

namespace audo::profiling {

struct SessionOptions {
  /// Basis ticks per rate sample (instructions for event-rate groups,
  /// cycles for IPC/chip groups).
  u32 resolution = 1000;
  /// Install the §5 standard parameter set (IPC + cache + access +
  /// system + chip groups).
  bool standard_rates = true;
  /// Extra groups appended after the standard ones.
  std::vector<mcds::CounterGroupConfig> extra_groups;

  bool program_trace = false;
  bool data_trace = false;
  bool irq_trace = false;
  bool cycle_accurate = false;
  u32 sync_interval_cycles = 4096;

  /// Build per-function CPI stacks from the per-cycle stall attribution
  /// and add the "stall" root-cause counter group to the MCDS spec. Off
  /// by default so the default trace stream is byte-identical to
  /// sessions predating stall attribution.
  bool cpi_stacks = false;

  /// Build the execution DAG (task/ISR activations, causal edges,
  /// critical path — see profiling/dag.hpp). Off by default; stacks with
  /// cpi_stacks via the SoC's frame-observer list.
  bool dag = false;

  std::vector<mcds::Comparator> comparators;
  std::vector<mcds::ActionBinding> actions;
  mcds::StateMachineConfig fsm;
  std::optional<unsigned> data_qualifier;

  ed::EdConfig ed;
};

struct SessionResult {
  u64 cycles = 0;
  u64 tc_retired = 0;
  double ipc = 0.0;

  std::vector<RateSeries> series;
  std::vector<mcds::TraceMessage> messages;

  u64 trace_bytes = 0;
  u64 trace_messages = 0;
  u64 dropped_messages = 0;
  /// Average trace bandwidth in bytes per thousand CPU cycles.
  double bytes_per_kcycle = 0.0;

  /// Per-function CPI stacks (SessionOptions::cpi_stacks; empty
  /// otherwise), sorted by cycles descending, plus their sum.
  std::vector<CpiStackEntry> cpi_stacks;
  CpiStackEntry cpi_total;
  /// Cumulative TC stall-attribution buckets (always filled).
  soc::StallTotals tc_stall_totals;

  const RateSeries* find_series(std::string_view name) const {
    for (const RateSeries& s : series) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

class ProfilingSession {
 public:
  ProfilingSession(const soc::SocConfig& soc_config,
                   const SessionOptions& options);

  /// Loads the image; with SessionOptions::cpi_stacks this also builds
  /// the symbol map and attaches the CPI-stack builder to the SoC (and
  /// the DAG builder with SessionOptions::dag). Call once per session.
  Status load(const isa::Program& program);
  void reset(Addr tc_entry, Addr pcp_entry = 0) {
    ed_.reset(tc_entry, pcp_entry);
  }

  /// Run (until TC halt or max_cycles), download and decode.
  SessionResult run(u64 max_cycles);

  ed::EmulationDevice& device() { return ed_; }
  const std::vector<mcds::CounterGroupConfig>& groups() const {
    return groups_;
  }
  /// Attached CPI-stack builder (null unless cpi_stacks was set).
  const CpiStackBuilder* cpi_builder() const { return cpi_builder_.get(); }
  /// Attached execution-DAG builder (null unless dag was set).
  const ExecutionDag* dag() const { return dag_.get(); }

 private:
  bool cpi_stacks_ = false;
  bool dag_enabled_ = false;
  std::vector<mcds::CounterGroupConfig> groups_;
  ed::EmulationDevice ed_;
  std::unique_ptr<CpiStackBuilder> cpi_builder_;
  std::unique_ptr<ExecutionDag> dag_;
};

}  // namespace audo::profiling
