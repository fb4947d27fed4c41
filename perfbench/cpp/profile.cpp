// profile: one profiled engine session per op. The engine has the
// bench::default_engine shape (64x64 maps, uncached strided diagnostics)
// with its options jittered by the seed; the session carries the §5
// standard rate set plus CPI stacks and the execution DAG.
#include "bench.hpp"
#include "common/prng.hpp"
#include "profiling/session.hpp"
#include "replay/replay.hpp"
#include "workload/engine.hpp"

namespace audo::perfbench {
namespace {

constexpr u64 kCycles = 800'000;
constexpr u64 kSmokeCycles = 20'000;

/// The bench::default_engine shape with small seeded jitter: enough to
/// change the instruction and interrupt stream, not the host work.
workload::EngineOptions engine_options_for(u64 seed) {
  Prng rng(seed ^ 0xe1e1'0001ull);
  workload::EngineOptions opt;
  opt.rpm = 3800 + 100 * static_cast<u32>(rng.next_below(5));  // 3800..4200
  opt.crank_time_scale = 80;
  opt.table_dim = 60 + 4 * static_cast<u32>(rng.next_below(3));  // 60..68
  opt.diag_words = 240 + 16 * static_cast<u32>(rng.next_below(3));
  opt.diag_uncached = true;
  opt.diag_stride_bytes = 36 + 4 * static_cast<u32>(rng.next_below(2));
  return opt;
}

class Profile final : public Workload {
 public:
  explicit Profile(const Options& o)
      : options_(o), cycles_(o.smoke ? kSmokeCycles : kCycles) {}

  Status setup(SpanTrace& trace) override {
    auto span = trace.span("workload.build");
    auto built = workload::build_engine_workload(engine_options_for(options_.seed));
    if (!built.is_ok()) return built.status();
    engine_ = std::move(built).value();
    return Status::ok();
  }

  OpResult op(SpanTrace& trace) override {
    const profiling::SessionResult r =
        run_session(trace, soc::SocConfig{}, /*full=*/true);
    last_ = Summary{r.trace_bytes, r.trace_messages, r.dropped_messages,
                    r.bytes_per_kcycle};
    return digest_of(r);
  }

  unsigned op_threads() const override { return 1; }

  void measure_layers(LayerContext& ctx) override {
    MetricSet& m = ctx.metrics;
    m.set("host.jobs", 1);
    m.set("ed.trace_bytes", static_cast<double>(last_.trace_bytes));
    m.set("ed.trace_messages", static_cast<double>(last_.trace_messages));
    m.set("ed.dropped_messages", static_cast<double>(last_.dropped_messages));
    m.set("ed.bytes_per_kcycle", last_.bytes_per_kcycle);

    // The full session, a standard-rates-only session (no CPI-stack or
    // DAG observers) and a bare Soc on the same engine and cycles,
    // interleaved so host drift hits all three alike; each reported as
    // the fastest of three. The bare run also checks non-intrusiveness:
    // the ED must not change cycles or retirement.
    std::vector<double> full_s;
    std::vector<double> min_s;
    std::vector<double> bare_s;
    SocTally tally;
    for (int rep = 0; rep < 3; ++rep) {
      double run_s = 0.0;
      (void)run_session(ctx.trace, soc::SocConfig{}, /*full=*/true, &run_s);
      full_s.push_back(run_s);
      const profiling::SessionResult minimal =
          run_session(ctx.trace, soc::SocConfig{}, /*full=*/false, &run_s);
      min_s.push_back(run_s);

      SocTally one;
      const double t0 = now_s();
      soc::Soc soc{soc::SocConfig{}};
      {
        auto span = ctx.trace.span("soc.load");
        (void)workload::install_engine(soc, engine_);
      }
      one.load_s = now_s() - t0;
      traced_run(ctx.trace, soc, cycles_, one);
      bare_s.push_back(one.run_s);
      ctx.check(soc.cycle() == minimal.cycles &&
                    soc.tc().retired() == minimal.tc_retired,
                "profile: the ED session perturbs cycles or retirement");
      if (rep == 0 || one.run_s < tally.run_s) tally = one;
    }
    const auto fastest = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    tally.report(m);
    m.set("profiling.session_full_s", fastest(full_s));
    m.set("ed.session_min_s", fastest(min_s));
    m.set("profiling.observer_overhead_ratio",
          ratio(fastest(full_s), fastest(min_s)));
    m.set("ed.overhead_ratio", ratio(fastest(min_s), fastest(bare_s)));

    // Tier / fast-forward identity of the full session's digests.
    soc::SocConfig accurate;
    accurate.exec_tier = soc::SocConfig::ExecTier::kAccurate;
    accurate.fast_forward = false;
    const OpResult r =
        digest_of(run_session(ctx.trace, accurate, /*full=*/true));
    ctx.check(r.digest == ctx.reference_digest,
              "profile: accurate tier without fast-forward changes the "
              "session digest");
  }

 private:
  struct Summary {
    u64 trace_bytes = 0;
    u64 trace_messages = 0;
    u64 dropped_messages = 0;
    double bytes_per_kcycle = 0.0;
  };

  /// One session on a fresh device; `run_s`, when given, receives the
  /// seconds spent in ProfilingSession::run.
  profiling::SessionResult run_session(SpanTrace& trace,
                                       const soc::SocConfig& config, bool full,
                                       double* run_s = nullptr) {
    profiling::SessionOptions so;
    so.resolution = 1000;
    so.standard_rates = true;
    so.cpi_stacks = full;
    so.dag = full;
    profiling::ProfilingSession session(config, so);
    {
      auto span = trace.span("profiling.session_setup");
      (void)session.load(engine_.program);
      workload::configure_engine(session.device().soc(), engine_.options);
      session.reset(engine_.tc_entry, engine_.pcp_entry);
    }
    const double t0 = now_s();
    profiling::SessionResult r = [&] {
      auto span = trace.span(full ? "profiling.session_run" : "ed.session_run");
      return session.run(cycles_);
    }();
    if (run_s != nullptr) *run_s = now_s() - t0;
    return r;
  }

  OpResult digest_of(const profiling::SessionResult& r) const {
    OpResult out;
    out.sim_cycles = r.cycles;
    out.digest = fnv1a(fnv1a(fnv1a(kFnvOffset, r.cycles), r.tc_retired),
                       replay::hash_messages(r.messages));
    if (r.cycles != cycles_) {
      out.ok = false;
      out.error = "session stopped at cycle " + std::to_string(r.cycles);
    }
    return out;
  }

  Options options_;
  u64 cycles_;
  workload::EngineWorkload engine_;
  Summary last_;
};

}  // namespace

std::unique_ptr<Workload> make_profile(const Options& options) {
  return std::make_unique<Profile>(options);
}

}  // namespace audo::perfbench
