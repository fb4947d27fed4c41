// The benchmark's metric tables and the result set a run fills.
//
// Every metric the benchmark can print is declared once here, with its
// unit and direction; BENCHMARK.json lists the same names (the test in
// perfbench/test_perfbench.py checks that the two agree). A run prints
// every end-to-end metric (untraced) or every per-layer metric (traced);
// a layer a workload never calls reports 0.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace audo::perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Metric names are [A-Za-z0-9_.-]+, starting with a letter or digit,
/// at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Values for one table of metrics; every name starts at 0.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs);

  /// Set a declared metric; throws std::logic_error on an unknown name.
  void set(const std::string& name, double value);

  /// {"name": {"value": v, "unit": "u"}, ...} in declaration order.
  std::string to_json() const;
  /// One "name value unit" line per metric, for the human log.
  std::string to_text() const;

 private:
  const std::vector<MetricDef>& defs_;
  std::map<std::string, double> values_;
};

}  // namespace audo::perfbench
