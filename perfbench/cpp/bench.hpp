// The workload interface main.cpp runs, plus helpers the four workloads
// share.
//
// A workload is a closed loop with one client: setup() builds the inputs
// from the seed (main.cpp times it before the first op and after every
// op, for setup_s), and main.cpp calls op() back to back. Each op builds
// fresh simulator objects, as a command-line user pays that cost on
// every run, and returns the model digest that is compared against the
// run's first op. In the traced run, measure_layers() then times calls
// into each layer directly and asserts the identity contracts (jobs,
// exec tier, fast-forward).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "metrics.hpp"
#include "soc/soc.hpp"
#include "span_trace.hpp"

namespace audo::perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimum-size inputs and a single op (the benchmark's own smoke test).
  bool smoke = false;
  /// Host workers for pooled workloads: min(4, hardware concurrency).
  unsigned jobs = 1;
};

struct OpResult {
  u64 digest = 0;      // model digest; must equal the first op's
  u64 sim_cycles = 0;  // simulated cycles this op completed
  bool ok = true;      // false: the op itself reported a failure
  std::string error;
};

/// What a traced run hands to measure_layers().
struct LayerContext {
  SpanTrace& trace;
  MetricSet& metrics;
  /// Identity-contract violations; any entry fails the benchmark.
  std::vector<std::string>& failures;
  /// Reference model digest (the run's first op).
  u64 reference_digest = 0;
  unsigned identity_checks = 0;

  void check(bool ok, const std::string& what) {
    ++identity_checks;
    if (!ok) failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate, assemble and load the inputs. Called several times; each
  /// call replaces the previous inputs.
  virtual Status setup(SpanTrace& trace) = 0;
  virtual OpResult op(SpanTrace& trace) = 0;
  /// Host threads an op keeps busy (the host reference runs on as many).
  virtual unsigned op_threads() const = 0;
  virtual void measure_layers(LayerContext& ctx) = 0;
};

std::unique_ptr<Workload> make_sweep(const Options& options);
std::unique_ptr<Workload> make_campaign(const Options& options);
std::unique_ptr<Workload> make_profile(const Options& options);
std::unique_ptr<Workload> make_replay(const Options& options);

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Median duration of the spans called `name` recorded inside ops.
inline double span_median(const SpanTrace& trace, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : trace.spans()) {
    if (s.name == name && s.op != 0) d.push_back(s.end - s.start);
  }
  return median(d);
}

/// Host-side counters of one or more direct Soc runs, summed.
struct SocTally {
  double load_s = 0.0;
  double run_s = 0.0;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 fast_cycles = 0;
  u64 windows = 0;
  u64 bails = 0;
  u64 gates = 0;
  u64 ff_skipped = 0;
  u64 ff_wakeups = 0;

  /// Fold in the counters of a finished run of `soc`.
  void add_run(const soc::Soc& soc) {
    cycles += soc.cycle();
    instructions += soc.tc().retired();
    const soc::ExecTierStats& e = soc.exec_stats();
    fast_cycles += e.fast_cycles;
    windows += e.windows;
    for (const u64 b : e.bails) bails += b;
    for (const u64 g : e.gates) gates += g;
    ff_skipped += soc.ff_stats().skipped_cycles;
    ff_wakeups += soc.ff_stats().wakeups;
  }

  void add(const SocTally& o) {
    load_s += o.load_s;
    run_s += o.run_s;
    cycles += o.cycles;
    instructions += o.instructions;
    fast_cycles += o.fast_cycles;
    windows += o.windows;
    bails += o.bails;
    gates += o.gates;
    ff_skipped += o.ff_skipped;
    ff_wakeups += o.ff_wakeups;
  }

  /// Fill the soc.* and model.* per-layer metrics.
  void report(MetricSet& m) const {
    const double c = static_cast<double>(cycles);
    m.set("soc.load_s", load_s);
    m.set("soc.run_s", run_s);
    m.set("soc.ns_per_cycle", ratio(1e9 * run_s, c));
    m.set("soc.exec.fast_cycle_ratio", ratio(static_cast<double>(fast_cycles), c));
    m.set("soc.exec.windows", static_cast<double>(windows));
    m.set("soc.exec.bails", static_cast<double>(bails));
    m.set("soc.exec.gates", static_cast<double>(gates));
    m.set("soc.ff.skipped_ratio", ratio(static_cast<double>(ff_skipped), c));
    m.set("soc.ff.wakeups", static_cast<double>(ff_wakeups));
    m.set("model.cycles", c);
    m.set("model.instructions", static_cast<double>(instructions));
    m.set("model.ipc", ratio(static_cast<double>(instructions), c));
  }
};

/// Run `soc` for up to `max_cycles` inside a span (default "soc.run"),
/// timing it into `tally` and folding in its counters.
inline void traced_run(SpanTrace& trace, soc::Soc& soc, u64 max_cycles,
                       SocTally& tally, const char* span_name = "soc.run") {
  const double t0 = now_s();
  {
    auto span = trace.span(span_name);
    soc.run(max_cycles);
  }
  tally.run_s += now_s() - t0;
  tally.add_run(soc);
}

/// Median seconds per Soc::save_snapshot call on `soc` (which must be
/// quiescent) and per restore_snapshot call onto a machine from `fresh`
/// (constructed and loaded, not timed); fills snapshot.save_s,
/// snapshot.restore_s and snapshot.bytes. Checks that a restored machine
/// saves back the same image.
void measure_snapshot_io(LayerContext& ctx, const soc::Soc& soc,
                         const std::function<std::unique_ptr<soc::Soc>()>& fresh,
                         unsigned reps);

}  // namespace audo::perfbench
