// campaign: a fault campaign on the event-driven engine. One op draws
// the seeded scenarios, prepares the warm fork and runs the campaign on
// a fresh FaultCampaign.
#include "bench.hpp"
#include "fault/fault_injector.hpp"
#include "optimize/fault_campaign.hpp"
#include "workload/engine.hpp"

namespace audo::perfbench {
namespace {

/// Scenarios per op, and how many of them the traced run re-runs
/// directly with the injector attached.
constexpr unsigned kScenarios = 96;
constexpr unsigned kSmokeScenarios = 4;
constexpr unsigned kSampled = 4;

class Campaign final : public Workload {
 public:
  explicit Campaign(const Options& o) : options_(o) {}

  Status setup(SpanTrace& trace) override {
    auto span = trace.span("workload.build");
    workload::EngineOptions opt;
    opt.idle_background = true;  // WFI between interrupts
    opt.halt_after_revs = options_.smoke ? 1 : 2;
    auto built = workload::build_engine_workload(opt);
    if (!built.is_ok()) return built.status();
    const workload::EngineWorkload& w = built.value();
    case_ = optimize::WorkloadCase{};
    case_.name = "engine";
    case_.program = w.program;
    case_.tc_entry = w.tc_entry;
    case_.pcp_entry = w.pcp_entry;
    case_.configure = [options = w.options](soc::Soc& soc) {
      workload::configure_engine(soc, options);
    };
    case_.max_cycles = 400'000;
    return Status::ok();
  }

  OpResult op(SpanTrace& trace) override {
    return run_campaign(trace, soc::SocConfig{}, options_.jobs);
  }

  unsigned op_threads() const override { return options_.jobs; }

  void measure_layers(LayerContext& ctx) override {
    MetricSet& m = ctx.metrics;
    m.set("host.jobs", options_.jobs);
    // Keep the reference op's summary: later campaigns overwrite it.
    const optimize::CampaignSummary reference = last_;
    const std::vector<optimize::FaultScenario> scenarios = last_scenarios_;

    // The same op at jobs=1 and at the run's jobs, alternated so host
    // drift hits both alike (fastest of three each).
    double serial_s = 0.0;
    double pooled_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      double t0 = now_s();
      const OpResult r = run_campaign(ctx.trace, soc::SocConfig{}, 1);
      const double s1 = now_s() - t0;
      ctx.check(r.ok && r.digest == ctx.reference_digest,
                "campaign: jobs=1 classification differs from jobs=" +
                    std::to_string(options_.jobs));
      t0 = now_s();
      (void)run_campaign(ctx.trace, soc::SocConfig{}, options_.jobs);
      const double sn = now_s() - t0;
      serial_s = rep == 0 ? s1 : std::min(serial_s, s1);
      pooled_s = rep == 0 ? sn : std::min(pooled_s, sn);
    }
    m.set("host.pool_efficiency", ratio(serial_s, options_.jobs * pooled_s));
    {
      soc::SocConfig accurate;
      accurate.exec_tier = soc::SocConfig::ExecTier::kAccurate;
      accurate.fast_forward = false;
      const OpResult r = run_campaign(ctx.trace, accurate, options_.jobs);
      ctx.check(r.ok && r.digest == ctx.reference_digest,
                "campaign: accurate tier without fast-forward changes the "
                "classification");
    }

    m.set("fault.scenarios", static_cast<double>(reference.runs.size()));
    static constexpr const char* kOutcome[] = {"masked", "corrected",
                                               "detected", "sdc",
                                               "hang", "failed"};
    for (unsigned k = 0; k < optimize::kNumFaultOutcomes; ++k) {
      m.set(std::string("fault.outcome.") + kOutcome[k],
            static_cast<double>(reference.outcome_counts[k]));
    }

    // A sample of the scenarios re-run directly with the injector
    // attached: what stepping under an injector costs per cycle.
    SocTally tally;
    const usize stride = std::max<usize>(1, scenarios.size() / kSampled);
    for (usize i = 0; i < scenarios.size() && i / stride < kSampled;
         i += stride) {
      const optimize::FaultScenario& sc = scenarios[i];
      soc::SocConfig cfg;
      cfg.safety = sc.safety;
      // The injector must outlive the Soc (its hooks live in the Soc's
      // memory arrays until ~Soc detaches them).
      fault::FaultInjector injector(sc.plan);
      const double t0 = now_s();
      soc::Soc soc(cfg);
      {
        auto span = ctx.trace.span("soc.load");
        (void)soc.load(case_.program);
        case_.configure(soc);
        soc.set_fault_injector(&injector);
        soc.reset(case_.tc_entry, case_.pcp_entry);
      }
      tally.load_s += now_s() - t0;
      traced_run(ctx.trace, soc, case_.max_cycles, tally, "fault.stepped_run");
      ctx.check(i < reference.runs.size() &&
                    soc.cycle() == reference.runs[i].cycles &&
                    soc.tc().halted() == reference.runs[i].halted,
                "campaign: direct re-run of " + sc.name +
                    " differs from the campaign's result");
    }
    tally.report(m);
    m.set("fault.stepped_ns_per_cycle",
          ratio(1e9 * tally.run_s, static_cast<double>(tally.cycles)));

    // The warm-fork image: where it lands, its size, and what one save
    // and one restore of it cost.
    m.set("snapshot.fork_cycle", static_cast<double>(fork_cycle_));
    const auto fresh = [this] {
      auto soc = std::make_unique<soc::Soc>(soc::SocConfig{});
      (void)soc->load(case_.program);
      case_.configure(*soc);
      soc->reset(case_.tc_entry, case_.pcp_entry);
      return soc;
    };
    std::unique_ptr<soc::Soc> warm = fresh();
    while (warm->cycle() < fork_cycle_ && !warm->tc().halted()) warm->step();
    ctx.check(fork_cycle_ > 0 && warm->quiescent(),
              "campaign: no quiescent warm-fork point");
    if (warm->quiescent()) measure_snapshot_io(ctx, *warm, fresh, 9);
  }

 private:
  OpResult run_campaign(SpanTrace& trace, const soc::SocConfig& config,
                        unsigned jobs) {
    optimize::FaultCampaign campaign{config, case_};
    campaign.set_jobs(jobs);
    {
      auto span = trace.span("fault.make_scenarios");
      last_scenarios_ = campaign.make_scenarios(
          options_.seed, options_.smoke ? kSmokeScenarios : kScenarios);
    }
    {
      auto span = trace.span("optimize.prepare_warm_fork");
      campaign.prepare_warm_fork(last_scenarios_);
    }
    {
      auto span = trace.span("optimize.campaign_run");
      last_ = campaign.run(last_scenarios_);
    }
    fork_cycle_ = campaign.warm_fork_cycle();
    OpResult r;
    r.digest = last_.classification_hash();
    r.sim_cycles = last_.golden.cycles;
    for (const optimize::ScenarioResult& s : last_.runs) {
      r.sim_cycles += s.cycles;
      if (s.failed) {
        r.ok = false;
        r.error = "scenario " + s.name + " quarantined as failed";
      }
    }
    if (last_.runs.size() != last_scenarios_.size()) {
      r.ok = false;
      r.error = "campaign returned fewer results than scenarios";
    }
    return r;
  }

  Options options_;
  optimize::WorkloadCase case_;
  std::vector<optimize::FaultScenario> last_scenarios_;
  optimize::CampaignSummary last_;
  Cycle fork_cycle_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const Options& options) {
  return std::make_unique<Campaign>(options);
}

}  // namespace audo::perfbench
