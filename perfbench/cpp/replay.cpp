// replay: replay::run_replay over the committed replays/ library, as
// recorded. The seed does not apply: the goldens are the inputs.
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "profiling/session.hpp"
#include "replay/oracle.hpp"
#include "replay/replay.hpp"
#include "soc/frame_digest.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo::perfbench {
namespace {

struct Golden {
  std::string name;  // file stem
  replay::ReplaySpec spec;
};

/// The golden's workload, built and installed on a fresh Soc.
struct Scenario {
  isa::Program program;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
};

Result<Scenario> build_scenario(const replay::ScenarioSpec& s) {
  Scenario out;
  if (s.kind == "engine") {
    auto built = workload::build_engine_workload(s.engine);
    if (!built.is_ok()) return built.status();
    out.tc_entry = built.value().tc_entry;
    out.pcp_entry = built.value().pcp_entry;
    out.program = std::move(built).value().program;
  } else {
    auto built = workload::build_transmission_workload(s.transmission);
    if (!built.is_ok()) return built.status();
    out.tc_entry = built.value().tc_entry;
    out.program = std::move(built).value().program;
  }
  return out;
}

void configure(soc::Soc& soc, const replay::ScenarioSpec& s) {
  if (s.kind == "engine") {
    workload::configure_engine(soc, s.engine);
  } else {
    workload::configure_transmission(soc, s.transmission);
  }
}

class Replay final : public Workload {
 public:
  explicit Replay(const Options& o) : options_(o) {}

  Status setup(SpanTrace& trace) override {
    // Run from the checkout root, where the goldens live.
    const std::filesystem::path dir = "replays";
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
      if (e.path().extension() == ".json") files.push_back(e.path());
    }
    if (ec || files.empty()) {
      return error(StatusCode::kNotFound,
                   "no replay goldens under " + dir.string());
    }
    std::sort(files.begin(), files.end());
    if (options_.smoke) files.resize(1);
    goldens_.clear();
    for (const auto& f : files) {
      auto span = trace.span("replay.load");
      auto spec = replay::ReplaySpec::from_file(f.string());
      if (!spec.is_ok()) return spec.status();
      goldens_.push_back({f.stem().string(), std::move(spec).value()});
    }
    return Status::ok();
  }

  OpResult op(SpanTrace& trace) override {
    return replay_all(trace, replay::OracleOptions{});
  }

  unsigned op_threads() const override { return 1; }

  void measure_layers(LayerContext& ctx) override {
    MetricSet& m = ctx.metrics;
    m.set("host.jobs", 1);
    for (const Golden& g : goldens_) {
      try {
        m.set("replay.run_s." + g.name,
              span_median(ctx.trace, "replay.run_replay." + g.name));
      } catch (const std::logic_error&) {
        // A golden added after the metric table was fixed: timed in the
        // trace, not reported by name.
      }
    }
    m.set("replay.frames", static_cast<double>(frames_));
    m.set("replay.windows_checked", static_cast<double>(windows_));

    // Tier / fast-forward / jobs identity: the whole library must still
    // pass on the accurate tier without fast-forward, campaigns serial.
    {
      replay::OracleOptions o;
      o.exec_tier = "accurate";
      o.fast_forward = 0;
      o.jobs = 1;
      const OpResult r = replay_all(ctx.trace, o);
      ctx.check(r.ok, "replay: the library fails on the accurate tier "
                      "without fast-forward at jobs=1: " + r.error);
    }

    // Each frame golden's scenario on a bare Soc, then with the canonical
    // frame digest attached: the observer's cost, and a check that the
    // digest it produces is the golden's.
    SocTally bare;
    double digest_s = 0.0;
    double session_s = 0.0;
    double session_bare_s = 0.0;
    u64 trace_bytes = 0, trace_messages = 0, dropped = 0, session_cycles = 0;
    for (const Golden& g : goldens_) {
      const replay::ReplaySpec& spec = g.spec;
      if (spec.campaign.enabled) continue;
      auto built = build_scenario(spec.scenario);
      if (!built.is_ok()) {
        ctx.check(false, "replay: cannot build " + g.name);
        continue;
      }
      const Scenario& sc = built.value();
      const u64 run_cycles = spec.scenario.run_cycles;
      const auto fresh = [&] {
        auto soc = std::make_unique<soc::Soc>(spec.config);
        (void)soc->load(sc.program);
        configure(*soc, spec.scenario);
        soc->reset(sc.tc_entry, sc.pcp_entry);
        return soc;
      };
      // Fastest of three bare runs: each is short, so one would be noisy.
      SocTally fastest;
      for (int rep = 0; rep < 3; ++rep) {
        SocTally one;
        const double t0 = now_s();
        std::unique_ptr<soc::Soc> soc = [&] {
          auto span = ctx.trace.span("soc.load");
          return fresh();
        }();
        one.load_s = now_s() - t0;
        traced_run(ctx.trace, *soc, run_cycles, one);
        if (rep == 0 || one.run_s < fastest.run_s) fastest = one;
      }
      const double bare_run_s = fastest.run_s;
      bare.add(fastest);
      {
        std::unique_ptr<soc::Soc> soc = fresh();
        soc::WindowedFrameDigest digest(spec.digests.window_bits);
        soc->add_frame_observer(&digest);
        const double t0 = now_s();
        {
          auto span = ctx.trace.span("frame_digest.run");
          soc->run(run_cycles);
          digest.finish();
        }
        digest_s += now_s() - t0;
        ctx.check(digest.stream_digest() == spec.digests.stream &&
                      digest.total_frames() == spec.digests.total_frames,
                  "replay: bare run of " + g.name +
                      " does not reproduce the golden frame digest");
      }
      if (spec.scenario.session.enabled) {
        // The golden's ED session, standard rates as recorded.
        profiling::SessionOptions so;
        so.resolution = spec.scenario.session.resolution;
        so.program_trace = spec.scenario.session.program_trace;
        so.irq_trace = spec.scenario.session.irq_trace;
        so.dag = spec.scenario.session.dag;
        profiling::ProfilingSession session(spec.config, so);
        (void)session.load(sc.program);
        configure(session.device().soc(), spec.scenario);
        session.reset(sc.tc_entry, sc.pcp_entry);
        const double t0 = now_s();
        const profiling::SessionResult r = [&] {
          auto span = ctx.trace.span("ed.session_run");
          return session.run(run_cycles);
        }();
        session_s += now_s() - t0;
        session_bare_s += bare_run_s;
        trace_bytes += r.trace_bytes;
        trace_messages += r.trace_messages;
        dropped += r.dropped_messages;
        session_cycles += r.cycles;
        ctx.check(replay::hash_messages(r.messages) == spec.digests.mcds_hash,
                  "replay: the ED session of " + g.name +
                      " does not reproduce the golden MCDS hash");
      }
    }
    bare.report(m);
    measure_checkpoint_io(ctx);
    m.set("frame_digest.overhead_ratio", ratio(digest_s, bare.run_s));
    m.set("ed.session_min_s", session_s);
    m.set("ed.overhead_ratio", ratio(session_s, session_bare_s));
    m.set("ed.trace_bytes", static_cast<double>(trace_bytes));
    m.set("ed.trace_messages", static_cast<double>(trace_messages));
    m.set("ed.dropped_messages", static_cast<double>(dropped));
    m.set("ed.bytes_per_kcycle",
          ratio(1000.0 * static_cast<double>(trace_bytes),
                static_cast<double>(session_cycles)));
  }

 private:
  /// Checkpoint I/O at the last quiescent cycle of the first golden
  /// scenario that has one (where a checkpoint can be taken): find it,
  /// then step a fresh machine there and save/restore it. The frame
  /// goldens' busy-loop scenarios never go quiescent; the fault-campaign
  /// golden's idle engine does.
  void measure_checkpoint_io(LayerContext& ctx) {
    for (const Golden& g : goldens_) {
      const replay::ReplaySpec& spec = g.spec;
      auto built = build_scenario(spec.scenario);
      if (!built.is_ok()) continue;
      const Scenario& sc = built.value();
      const auto fresh = [&] {
        auto soc = std::make_unique<soc::Soc>(spec.config);
        (void)soc->load(sc.program);
        configure(*soc, spec.scenario);
        soc->reset(sc.tc_entry, sc.pcp_entry);
        return soc;
      };
      std::unique_ptr<soc::Soc> probe = fresh();
      Cycle last_quiescent = 0;
      while (probe->cycle() < spec.scenario.run_cycles &&
             !probe->tc().halted()) {
        probe->step();
        if (probe->quiescent()) last_quiescent = probe->cycle();
      }
      if (last_quiescent == 0) continue;
      std::unique_ptr<soc::Soc> soc = fresh();
      while (soc->cycle() < last_quiescent) soc->step();
      ctx.metrics.set("snapshot.fork_cycle", static_cast<double>(soc->cycle()));
      measure_snapshot_io(ctx, *soc, fresh, 9);
      return;
    }
  }

  OpResult replay_all(SpanTrace& trace, const replay::OracleOptions& o) {
    OpResult out;
    u64 h = kFnvOffset;
    frames_ = 0;
    windows_ = 0;
    for (const Golden& g : goldens_) {
      Result<replay::ReplayResult> r = [&] {
        auto span = trace.span("replay.run_replay." + g.name);
        return replay::run_replay(g.spec, o);
      }();
      if (!r.is_ok()) {
        out.ok = false;
        out.error = g.name + ": " + r.status().to_string();
        continue;
      }
      const replay::ReplayResult& res = r.value();
      if (!res.passed) {
        out.ok = false;
        out.error = g.name + " did not pass";
      }
      h = fnv1a(h, g.name);
      h = fnv1a(h, res.frames);
      h = fnv1a(h, res.windows_checked);
      h = fnv1a(h, res.campaign_scenarios);
      frames_ += res.frames;
      windows_ += res.windows_checked;
      out.sim_cycles += g.spec.cycles;
      for (const replay::CampaignSpec::Run& run : g.spec.campaign.runs) {
        out.sim_cycles += run.cycles;
      }
    }
    out.digest = h;
    return out;
  }

  Options options_;
  std::vector<Golden> goldens_;
  u64 frames_ = 0;
  u64 windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_replay(const Options& options) {
  return std::make_unique<Replay>(options);
}

}  // namespace audo::perfbench
