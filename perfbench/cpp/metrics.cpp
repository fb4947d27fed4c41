#include "metrics.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/json.hpp"

namespace audo::perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"wall_ref_p50", "ref", "lower"},
      {"sim_cycles_per_ref", "1/ref", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
      // 1 - error_rate: an end-to-end metric must never read 0.
      {"ok_ratio", "ratio", "higher"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"workload.build_s", "s", "lower"},
      {"replay.load_s", "s", "lower"},
      {"optimize.evaluate_s", "s", "lower"},
      {"optimize.self_s", "s", "lower"},
      {"optimize.boot_probe_hits", "count", "higher"},
      {"optimize.boot_probe_misses", "count", "lower"},
      {"optimize.boot_probe_hit_ratio", "ratio", "higher"},
      {"host.jobs", "count", "higher"},
      {"host.pool_efficiency", "ratio", "higher"},
      {"soc.load_s", "s", "lower"},
      {"soc.run_s", "s", "lower"},
      {"soc.ns_per_cycle", "ns/cycle", "lower"},
      {"soc.exec.fast_cycle_ratio", "ratio", "higher"},
      {"soc.exec.windows", "count", "lower"},
      {"soc.exec.bails", "count", "lower"},
      {"soc.exec.gates", "count", "lower"},
      {"soc.ff.skipped_ratio", "ratio", "higher"},
      {"soc.ff.wakeups", "count", "lower"},
      {"snapshot.fork_cycle", "cycles", "higher"},
      {"snapshot.bytes", "bytes", "lower"},
      {"snapshot.save_s", "s", "lower"},
      {"snapshot.restore_s", "s", "lower"},
      {"fault.scenarios", "count", "higher"},
      {"fault.stepped_ns_per_cycle", "ns/cycle", "lower"},
      {"fault.outcome.masked", "count", "higher"},
      {"fault.outcome.corrected", "count", "higher"},
      {"fault.outcome.detected", "count", "higher"},
      {"fault.outcome.sdc", "count", "lower"},
      {"fault.outcome.hang", "count", "lower"},
      {"fault.outcome.failed", "count", "lower"},
      {"ed.session_min_s", "s", "lower"},
      {"ed.overhead_ratio", "ratio", "lower"},
      {"ed.trace_bytes", "bytes", "lower"},
      {"ed.trace_messages", "count", "lower"},
      {"ed.dropped_messages", "count", "lower"},
      {"ed.bytes_per_kcycle", "bytes/kcycle", "lower"},
      {"profiling.session_full_s", "s", "lower"},
      {"profiling.observer_overhead_ratio", "ratio", "lower"},
      {"frame_digest.overhead_ratio", "ratio", "lower"},
      {"replay.run_s.engine_accurate", "s", "lower"},
      {"replay.run_s.engine_superblock", "s", "lower"},
      {"replay.run_s.faultcamp_engine", "s", "lower"},
      {"replay.run_s.transmission_superblock", "s", "lower"},
      {"replay.frames", "count", "higher"},
      {"replay.windows_checked", "count", "higher"},
      {"model.cycles", "cycles", "lower"},
      {"model.instructions", "count", "lower"},
      {"model.ipc", "instr/cycle", "higher"},
      {"bench.wall_s_p50", "s", "lower"},
      {"bench.host_ref_s", "s", "lower"},
      {"bench.trace_overhead_ratio", "ratio", "lower"},
      {"bench.error_rate", "ratio", "lower"},
      {"bench.identity_checks", "count", "higher"},
      {"trace.self_s.bench", "s", "lower"},
      {"trace.self_s.workload", "s", "lower"},
      {"trace.self_s.optimize", "s", "lower"},
      {"trace.self_s.soc", "s", "lower"},
      {"trace.self_s.snapshot", "s", "lower"},
      {"trace.self_s.fault", "s", "lower"},
      {"trace.self_s.ed", "s", "lower"},
      {"trace.self_s.profiling", "s", "lower"},
      {"trace.self_s.frame_digest", "s", "lower"},
      {"trace.self_s.replay", "s", "lower"},
  };
  return kDefs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

MetricSet::MetricSet(const std::vector<MetricDef>& defs) : defs_(defs) {
  for (const MetricDef& d : defs_) values_[d.name] = 0.0;
}

void MetricSet::set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("undeclared metric: " + name);
  }
  it->second = value;
}

std::string MetricSet::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  for (const MetricDef& d : defs_) {
    w.key(d.name);
    w.begin_object();
    w.kv("value", values_.at(d.name));
    w.kv("unit", d.unit);
    w.end_object();
  }
  w.end_object();
  return std::move(w).str();
}

std::string MetricSet::to_text() const {
  std::string out;
  char line[160];
  for (const MetricDef& d : defs_) {
    std::snprintf(line, sizeof line, "  %-38s %16.6g %-12s (%s is better)\n",
                  d.name, values_.at(d.name), d.unit, d.better);
    out += line;
  }
  return out;
}

}  // namespace audo::perfbench
