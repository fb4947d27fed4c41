#include "profiling/session.hpp"

namespace audo::profiling {
namespace {

mcds::McdsConfig build_mcds_config(const SessionOptions& options,
                                   std::vector<mcds::CounterGroupConfig>& groups) {
  groups.clear();
  if (options.standard_rates) {
    groups = standard_groups(options.resolution);
  }
  if (options.cpi_stacks) groups.push_back(stall_root_group(options.resolution));
  for (const auto& g : options.extra_groups) groups.push_back(g);

  mcds::McdsConfig config;
  config.program_trace = options.program_trace;
  config.data_trace = options.data_trace;
  config.irq_trace = options.irq_trace;
  config.cycle_accurate = options.cycle_accurate;
  config.sync_interval_cycles = options.sync_interval_cycles;
  config.comparators = options.comparators;
  config.actions = options.actions;
  config.fsm = options.fsm;
  config.data_qualifier = options.data_qualifier;
  config.counter_groups = groups;
  return config;
}

}  // namespace

ProfilingSession::ProfilingSession(const soc::SocConfig& soc_config,
                                   const SessionOptions& options)
    : cpi_stacks_(options.cpi_stacks),
      dag_enabled_(options.dag),
      ed_(soc_config, build_mcds_config(options, groups_), options.ed) {}

Status ProfilingSession::load(const isa::Program& program) {
  if (cpi_stacks_) {
    cpi_builder_ = std::make_unique<CpiStackBuilder>(isa::SymbolMap(program));
    ed_.soc().add_frame_observer(cpi_builder_.get());
  }
  if (dag_enabled_) {
    dag_ = std::make_unique<ExecutionDag>(isa::SymbolMap(program));
    ed_.soc().add_frame_observer(dag_.get());
  }
  return ed_.load(program);
}

SessionResult ProfilingSession::run(u64 max_cycles) {
  SessionResult result;
  ed_.run(max_cycles);
  // Cumulative since reset: a session may be advanced in slices through
  // device() (e.g. while the harness drives the environment).
  result.cycles = ed_.soc().cycle();
  result.tc_retired = ed_.soc().tc().retired();
  result.ipc = result.cycles == 0
                   ? 0.0
                   : static_cast<double>(result.tc_retired) /
                         static_cast<double>(result.cycles);

  result.trace_bytes = ed_.emem().total_pushed_bytes();
  result.trace_messages = ed_.emem().total_pushed_messages();
  result.dropped_messages = ed_.mcds().dropped_messages();
  result.bytes_per_kcycle =
      result.cycles == 0 ? 0.0
                         : 1000.0 * static_cast<double>(result.trace_bytes) /
                               static_cast<double>(result.cycles);

  result.tc_stall_totals = ed_.soc().tc_stall_totals();
  if (cpi_builder_ != nullptr) {
    result.cpi_stacks = cpi_builder_->stacks();
    result.cpi_total = cpi_builder_->total();
  }

  auto decoded = ed_.download_trace();
  if (decoded.is_ok()) {
    result.messages = std::move(decoded).value();
    result.series = extract_series(groups_, result.messages);
  }
  return result;
}

}  // namespace audo::profiling
