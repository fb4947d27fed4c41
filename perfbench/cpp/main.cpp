// perfbench: the trisim benchmark's main program.
//
//   perfbench --workload sweep|campaign|profile|replay --seed N
//             --seconds S --trace 0|1 [--out DIR] [--smoke]
//   perfbench --self-test | --list-metrics
//
// Untraced (--trace 0): run ops back to back for S seconds and print the
// end-to-end metrics. Each op is timed against a host-reference run made
// just before it, and followed by a timed set-up of the inputs.
// Traced (--trace 1): for two thirds of S alternate untraced and traced
// ops (spans around every call into a layer), then run the workload's
// layer measurements and identity checks; prints the per-layer metrics
// and, with --out, writes the spans as Perfetto JSON.
// The last stdout line is always the result object
// {"correct", "attempted", "failed", "metrics"}; exit status 1 when any
// op or identity check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace audo::perfbench {
namespace {

/// Ops every run makes at least, whatever --seconds says.
constexpr unsigned kMinOps = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep|campaign|profile|replay "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--smoke]\n"
               "       perfbench --self-test | --list-metrics\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_descriptor(const Options& o) {
  json::JsonWriter w;
  w.begin_object();
  w.kv("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
  w.kv("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.kv("compiler", "gcc " __VERSION__);
#else
  w.kv("compiler", "unknown");
#endif
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("cpu_model", cpu_model());
  w.kv("jobs", o.jobs);
  w.kv("workload", o.workload);
  w.kv("seed", o.seed);
  w.kv("seconds", o.seconds);
  w.kv("trace", o.trace);
  w.end_object();
  return std::move(w).str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "sweep") return make_sweep(o);
  if (o.workload == "campaign") return make_campaign(o);
  if (o.workload == "profile") return make_profile(o);
  if (o.workload == "replay") return make_replay(o);
  return nullptr;
}

/// Seconds a fixed host workload takes right now on `threads` threads
/// at once (wall time until all finish). It uses no simulator code:
/// data-dependent branches and reads and writes over a 64 KiB table per
/// thread, about the shape of a simulator step. Each op is timed against
/// the mean of a run of it just before and one just after, on as many
/// threads as the op keeps busy, so the end-to-end metrics are ratios
/// measured within one run, which host-speed drift moves far less than
/// raw seconds. The simulator cannot change it: it lives here.
double host_reference_s(unsigned threads) {
  const auto kernel = [] {
    std::vector<u64> table(u64{1} << 13);
    u64 x = 0x9E3779B97F4A7C15ull;
    u64 acc = 0;
    for (u32 i = 0; i < (1u << 20); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      u64& slot = table[x & (table.size() - 1)];
      if ((slot ^ x) & 1) {
        acc += slot ^ (x >> 3);
      } else {
        acc ^= slot + (x << 1);
      }
      slot = acc;
    }
    asm volatile("" : : "r"(acc));  // keep the loop's result live
  };
  const double t0 = now_s();
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(kernel);
  kernel();
  for (std::thread& h : helpers) h.join();
  return now_s() - t0;
}

/// The op loop's tally, one entry per passing op.
struct Loop {
  std::vector<double> wall_s;
  std::vector<double> ref_s;  // mean host reference around the op
  std::vector<u64> sim_cycles;
  std::vector<double>* setup_s;  // shared across loops
  unsigned attempted = 0;
  unsigned failed = 0;
  bool setup_failed = false;

  explicit Loop(std::vector<double>* setups) : setup_s(setups) {}

  /// Median op wall time in host-reference units.
  double wall_ref_p50() const {
    std::vector<double> r;
    for (usize i = 0; i < wall_s.size(); ++i) r.push_back(ratio(wall_s[i], ref_s[i]));
    return median(r);
  }
  /// Median simulated cycles per host-reference unit.
  double sim_cycles_per_ref() const {
    std::vector<double> r;
    for (usize i = 0; i < wall_s.size(); ++i) {
      r.push_back(ratio(static_cast<double>(sim_cycles[i]) * ref_s[i], wall_s[i]));
    }
    return median(r);
  }
};

/// One timed set-up; false (and a message) when it fails.
bool timed_setup(Workload& w, SpanTrace& trace, std::vector<double>& setup_s) {
  const double t0 = now_s();
  Status s = [&] {
    auto span = trace.span("bench.setup");
    return w.setup(trace);
  }();
  setup_s.push_back(now_s() - t0);
  if (!s.is_ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.to_string().c_str());
  }
  return s.is_ok();
}

/// The digest every op must reproduce: the first passing op's.
struct Reference {
  bool set = false;
  u64 digest = 0;
};

/// One op between two host-reference runs, followed by a timed set-up
/// (so set-up samples spread over the run as the ops do). The op
/// fails when it reports a failure or its digest differs from `ref`'s.
/// Returns false when the set-up fails.
bool run_op(Workload& w, SpanTrace& trace, u64 op_id, Reference& ref,
            Loop& loop) {
  const double ref_before = host_reference_s(w.op_threads());
  trace.set_op(op_id);
  const double t0 = now_s();
  OpResult r;
  {
    auto span = trace.span("bench.op");
    r = w.op(trace);
  }
  const double dt = now_s() - t0;
  trace.set_op(0);
  const double host_ref =
      0.5 * (ref_before + host_reference_s(w.op_threads()));
  ++loop.attempted;
  if (!ref.set && r.ok) {
    ref.set = true;
    ref.digest = r.digest;
  }
  if (!r.ok || r.digest != ref.digest) {
    ++loop.failed;
    std::fprintf(stderr, "op %llu failed: %s\n",
                 static_cast<unsigned long long>(op_id),
                 r.ok ? "model digest differs from the first op's"
                      : r.error.c_str());
  } else {
    loop.wall_s.push_back(dt);
    loop.sim_cycles.push_back(r.sim_cycles);
    loop.ref_s.push_back(host_ref);
  }
  return timed_setup(w, trace, *loop.setup_s);
}

/// Median over set-ups of the time spent in spans called `name` inside
/// each "bench.setup" span.
double per_setup_median(const std::vector<Span>& spans, const std::string& name) {
  std::map<int, double> per_setup;
  for (usize i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "bench.setup") per_setup[static_cast<int>(i)] = 0.0;
  }
  for (const Span& s : spans) {
    auto it = per_setup.find(s.parent);
    if (s.name == name && it != per_setup.end()) it->second += s.end - s.start;
  }
  std::vector<double> v;
  for (const auto& [index, seconds] : per_setup) v.push_back(seconds);
  return median(v);
}

void print_result(bool correct, unsigned attempted, unsigned failed,
                  const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.to_json().c_str());
  std::fflush(stdout);
}

int run(const Options& o, const std::string& out_dir) {
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr) usage("unknown workload");
  std::printf("# host %s\n", host_descriptor(o).c_str());

  SpanTrace trace(o.trace);
  std::vector<double> setup_s;
  if (!timed_setup(*w, trace, setup_s)) return 1;

  const unsigned min_ops = o.smoke ? 1 : kMinOps;
  Reference ref;
  SpanTrace off(false);
  if (!o.trace) {
    Loop loop(&setup_s);
    const double start = now_s();
    for (u64 i = 0; i < min_ops || now_s() - start < o.seconds; ++i) {
      if (!run_op(*w, off, i + 1, ref, loop)) return 1;
    }
    MetricSet m(end_to_end_metrics());
    m.set("wall_ref_p50", loop.wall_ref_p50());
    m.set("sim_cycles_per_ref", loop.sim_cycles_per_ref());
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mib", peak_rss_mib());
    m.set("ok_ratio", ratio(loop.attempted - loop.failed, loop.attempted));
    std::fprintf(stderr,
                 "%s: %u ops (%u failed), median op %.4f s, median host "
                 "reference %.4f s\nop wall s:",
                 o.workload.c_str(), loop.attempted, loop.failed,
                 median(loop.wall_s), median(loop.ref_s));
    for (const double d : loop.wall_s) std::fprintf(stderr, " %.4f", d);
    std::fprintf(stderr, "\nref s:");
    for (const double d : loop.ref_s) std::fprintf(stderr, " %.4f", d);
    std::fprintf(stderr, "\n%s", m.to_text().c_str());
    print_result(loop.failed == 0, loop.attempted, loop.failed, m);
    return loop.failed == 0 ? 0 : 1;
  }

  // Traced run: two thirds of the time alternate untraced and traced
  // ops (so host drift hits both alike), then the layer measurements.
  Loop untraced(&setup_s);
  Loop traced(&setup_s);
  const double start = now_s();
  for (u64 i = 0; i < 2 * min_ops || now_s() - start < o.seconds * 2 / 3; ++i) {
    const bool on = i % 2 == 1;
    if (!run_op(*w, on ? trace : off, i + 1, ref, on ? traced : untraced)) {
      return 1;
    }
  }

  MetricSet m(per_layer_metrics());
  std::vector<std::string> failures;
  LayerContext ctx{trace, m, failures};
  ctx.reference_digest = ref.digest;
  if (ref.set) {
    auto span = trace.span("bench.layers");
    w->measure_layers(ctx);
  } else {
    failures.push_back("no op succeeded");
  }

  const unsigned attempted = untraced.attempted + traced.attempted;
  const unsigned failed = untraced.failed + traced.failed;
  m.set("workload.build_s", per_setup_median(trace.spans(), "workload.build"));
  m.set("replay.load_s", per_setup_median(trace.spans(), "replay.load"));
  m.set("bench.wall_s_p50", median(untraced.wall_s));
  m.set("bench.host_ref_s", median(untraced.ref_s));
  m.set("bench.trace_overhead_ratio",
        ratio(traced.wall_ref_p50(), untraced.wall_ref_p50()));
  m.set("bench.error_rate", ratio(failed, attempted));
  m.set("bench.identity_checks", ctx.identity_checks);
  for (const auto& [layer, seconds] : self_seconds_by_layer(trace.spans())) {
    const std::string name = "trace.self_s." + layer;
    try {
      m.set(name, seconds);
    } catch (const std::logic_error&) {
      std::fprintf(stderr, "span layer without a metric: %s\n", layer.c_str());
    }
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "identity check failed: %s\n", f.c_str());
  }
  std::fprintf(stderr, "%s traced: %u ops (%u failed), %u identity checks\n%s",
               o.workload.c_str(), attempted, failed, ctx.identity_checks,
               m.to_text().c_str());
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    std::ofstream(stem + ".perfetto.json") << trace.to_chrome_json();
    std::ofstream(stem + ".layers.json")
        << "{\"host\": " << host_descriptor(o) << ", \"metrics\": "
        << m.to_json() << "}\n";
  }
  const bool correct = failed == 0 && failures.empty();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

/// The benchmark's own unit checks: metric-name syntax and uniqueness,
/// and self-time arithmetic on a synthetic span tree.
int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
  };
  std::map<std::string, int> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      expect(valid_metric_name(d.name), std::string("metric name ") + d.name);
      expect(++seen[d.name] == 1, std::string("duplicate metric ") + d.name);
      expect(std::strcmp(d.better, "lower") == 0 ||
                 std::strcmp(d.better, "higher") == 0,
             std::string("direction of ") + d.name);
    }
  }
  expect(!valid_metric_name("bad name"), "space rejected");
  expect(!valid_metric_name("_x"), "leading underscore rejected");
  expect(!valid_metric_name(""), "empty name rejected");

  // op [0,10): optimize [1,6) holding soc [2,4) and soc [3,5) (overlap,
  // union 3 s); soc [7,9); snapshot [8,12) clipped to its parent soc.
  const std::vector<Span> spans = {
      {"bench.op", 0, 10, -1, 1},      {"optimize.evaluate", 1, 6, 0, 1},
      {"soc.run", 2, 4, 1, 1},         {"soc.run", 3, 5, 1, 1},
      {"soc.run", 7, 9, 0, 1},         {"snapshot.save", 8, 12, 4, 1},
  };
  const auto self = self_seconds_by_layer(spans);
  const auto near = [](double a, double b) { return a > b - 1e-9 && a < b + 1e-9; };
  expect(near(self.at("bench"), 10 - 5 - 2), "bench self time");
  expect(near(self.at("optimize"), 5 - 3), "optimize self time");
  expect(near(self.at("soc"), 2 + 2 + (2 - 1)), "soc self time");
  expect(near(self.at("snapshot"), 4), "snapshot self time");
  expect(layer_of("frame_digest.run") == "frame_digest", "layer_of");

  SpanTrace t(true);
  {
    auto a = t.span("bench.op");
    auto b = t.span("soc.run");
  }
  expect(t.spans().size() == 2 && t.spans()[1].parent == 0 &&
             t.spans()[0].end >= t.spans()[1].end,
         "span nesting");
  SpanTrace off(false);
  { auto a = off.span("bench.op"); }
  expect(off.spans().empty(), "disabled trace records nothing");
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace audo::perfbench

int main(int argc, char** argv) {
  using namespace audo::perfbench;
  Options o;
  std::string out_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--self-test") return self_test();
    if (a == "--list-metrics") {
      for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const MetricDef& d : *table) {
          std::printf("%s %s %s %s\n",
                      table == &end_to_end_metrics() ? "end_to_end" : "per_layer",
                      d.name, d.unit, d.better);
        }
      }
      return 0;
    }
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--out") {
      out_dir = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  o.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  return run(o, out_dir);
}
