// sweep: the E6 option sweep. One op evaluates the standard catalogue
// over a seeded kernel suite on a fresh ArchitectureEvaluator.
#include "bench.hpp"
#include "common/prng.hpp"
#include "optimize/evaluator.hpp"
#include "workload/kernels.hpp"

namespace audo::perfbench {
namespace {

/// Kernel sizes drawn from the seed. The lookup table (2-16 KiB)
/// straddles the modelled 4 KiB D-cache. Every size knob comes with a
/// repeat knob that holds the kernel's cycle count near constant across
/// seeds, so the seed changes the inputs, not the amount of work: the
/// FIR and memcpy products are fixed, and each lookup table size gets
/// the iteration count that runs ~45k cycles on the baseline config.
struct SuiteSizes {
  u32 fir_taps = 16;
  u32 fir_samples = 256;
  u32 checksum_words = 2048;
  u32 matmul_dim = 12;
  u32 sort_n = 96;
  u32 lookup_words = 1024;
  u32 lookup_iterations = 4096;
  u32 memcpy_words = 512;
  u32 memcpy_passes = 8;
};

SuiteSizes sizes_for(u64 seed, bool smoke) {
  if (smoke) return SuiteSizes{8, 32, 128, 4, 12, 256, 256, 64, 2};
  struct Lookup {
    u32 words;
    u32 iterations;
  };
  static constexpr Lookup kLookups[] = {
      {512, 4096}, {1024, 4096}, {2048, 3344}, {4096, 3072}};
  Prng rng(seed ^ 0x5eed'5eedull);
  SuiteSizes s;
  s.fir_taps = 8 + 4 * static_cast<u32>(rng.next_below(7));  // 8..32
  s.fir_samples = 4096 / s.fir_taps;
  s.checksum_words = 1920 + 64 * static_cast<u32>(rng.next_below(5));
  s.sort_n = 94 + 2 * static_cast<u32>(rng.next_below(3));  // 94..98
  const Lookup& l = kLookups[rng.next_below(4)];
  s.lookup_words = l.words;
  s.lookup_iterations = l.iterations;
  s.memcpy_words = 256u << rng.next_below(4);  // 256..2048
  s.memcpy_passes = 4096 / s.memcpy_words;
  return s;
}

/// Order-sensitive digest over (option rank, per-case cycles,
/// instructions, halted): equal digests mean bit-identical CaseRun
/// vectors and ranking order.
u64 runs_checksum(const std::vector<optimize::OptionResult>& results) {
  u64 h = kFnvOffset;
  for (const auto& r : results) {
    h = fnv1a(h, r.option);
    for (const auto& run : r.runs) {
      h = fnv1a(h, run.cycles);
      h = fnv1a(h, run.instructions);
      h = fnv1a(h, run.halted ? 1 : 0);
    }
  }
  return h;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& o) : options_(o) {}

  Status setup(SpanTrace& trace) override {
    auto span = trace.span("workload.build");
    const SuiteSizes z = sizes_for(options_.seed, options_.smoke);
    struct Built {
      const char* name;
      Result<isa::Program> program;
    };
    Built built[] = {
        {"fir", workload::build_fir(z.fir_taps, z.fir_samples)},
        {"checksum", workload::build_checksum(z.checksum_words)},
        {"checksum_uncached", workload::build_checksum(z.checksum_words, true)},
        {"matmul", workload::build_matmul(z.matmul_dim)},
        {"sort", workload::build_sort(z.sort_n)},
        {"lookup", workload::build_lookup_stress(z.lookup_words,
                                                 z.lookup_iterations)},
        {"memcpy", workload::build_memcpy(z.memcpy_words, z.memcpy_passes)},
    };
    cases_.clear();
    for (Built& b : built) {
      if (!b.program.is_ok()) return b.program.status();
      optimize::WorkloadCase wc;
      wc.name = b.name;
      wc.program = std::move(b.program).value();
      wc.tc_entry = wc.program.entry();
      cases_.push_back(std::move(wc));
    }
    catalogue_ = optimize::standard_catalogue();
    return Status::ok();
  }

  OpResult op(SpanTrace& trace) override {
    return evaluate(trace, soc::SocConfig{}, options_.jobs, nullptr);
  }

  // The evaluator's serial boot probe takes most of an op (see
  // optimize.self_s), so the op keeps one thread busy most of the time.
  unsigned op_threads() const override { return 1; }

  void measure_layers(LayerContext& ctx) override {
    MetricSet& m = ctx.metrics;
    m.set("host.jobs", options_.jobs);
    m.set("optimize.evaluate_s", span_median(ctx.trace, "optimize.evaluate"));

    // The same op at jobs=1 and at the run's jobs, alternated so host
    // drift hits both alike (fastest of two each): pool efficiency, the
    // jobs identity contract and the boot-probe counters of one fresh
    // evaluator.
    optimize::ArchitectureEvaluator::BootCacheStats probe;
    double serial_s = 0.0;
    double pooled_s = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      double t0 = now_s();
      const OpResult r = evaluate(ctx.trace, soc::SocConfig{}, 1, &probe);
      const double s1 = now_s() - t0;
      ctx.check(r.ok && r.digest == ctx.reference_digest,
                "sweep: jobs=1 digest differs from jobs=" +
                    std::to_string(options_.jobs));
      t0 = now_s();
      (void)evaluate(ctx.trace, soc::SocConfig{}, options_.jobs, nullptr);
      const double sn = now_s() - t0;
      serial_s = rep == 0 ? s1 : std::min(serial_s, s1);
      pooled_s = rep == 0 ? sn : std::min(pooled_s, sn);
    }
    m.set("host.pool_efficiency", ratio(serial_s, options_.jobs * pooled_s));
    m.set("optimize.boot_probe_hits", static_cast<double>(probe.hits));
    m.set("optimize.boot_probe_misses", static_cast<double>(probe.misses));
    m.set("optimize.boot_probe_hit_ratio",
          ratio(static_cast<double>(probe.hits),
                static_cast<double>(probe.hits + probe.misses)));

    // Tier / fast-forward identity on the generated suite.
    {
      soc::SocConfig accurate;
      accurate.exec_tier = soc::SocConfig::ExecTier::kAccurate;
      accurate.fast_forward = false;
      const OpResult r = evaluate(ctx.trace, accurate, options_.jobs, nullptr);
      ctx.check(r.ok && r.digest == ctx.reference_digest,
                "sweep: accurate tier without fast-forward changes the digest");
    }

    // Every (config, case) pair the evaluator runs, run directly: what
    // the soc layer costs on its own, and what evaluate() adds on top.
    SocTally tally;
    const soc::SocConfig base;
    std::vector<std::pair<std::string, soc::SocConfig>> configs = {
        {"baseline", base}};
    for (const optimize::ArchOption& o : catalogue_) {
      configs.emplace_back(o.name, o.apply(base));
    }
    std::vector<optimize::OptionResult> direct;
    for (const auto& [name, config] : configs) {
      optimize::OptionResult row;
      row.option = name;
      for (const optimize::WorkloadCase& wc : cases_) {
        const double t0 = now_s();
        soc::Soc soc(config);
        {
          auto span = ctx.trace.span("soc.load");
          (void)soc.load(wc.program);
          soc.reset(wc.tc_entry, wc.pcp_entry);
        }
        tally.load_s += now_s() - t0;
        traced_run(ctx.trace, soc, wc.max_cycles, tally);
        row.runs.push_back({wc.name, soc.cycle(), soc.tc().retired(),
                            soc.tc().halted()});
      }
      direct.push_back(std::move(row));
    }
    tally.report(m);
    m.set("optimize.self_s", serial_s - tally.load_s - tally.run_s);
    // Direct runs must reproduce the evaluator's CaseRuns pair by pair.
    bool same = true;
    for (const optimize::OptionResult& r : last_results_) {
      for (const optimize::OptionResult& d : direct) {
        if (d.option != r.option) continue;
        for (usize k = 0; k < r.runs.size() && k < d.runs.size(); ++k) {
          same = same && r.runs[k].cycles == d.runs[k].cycles &&
                 r.runs[k].instructions == d.runs[k].instructions;
        }
      }
    }
    ctx.check(same, "sweep: direct Soc runs differ from the evaluator's");
  }

 private:
  OpResult evaluate(SpanTrace& trace, const soc::SocConfig& baseline,
                    unsigned jobs,
                    optimize::ArchitectureEvaluator::BootCacheStats* probe) {
    optimize::ArchitectureEvaluator evaluator{baseline};
    evaluator.set_jobs(jobs);
    {
      auto span = trace.span("optimize.add_cases");
      for (const optimize::WorkloadCase& wc : cases_) evaluator.add_case(wc);
    }
    std::vector<optimize::OptionResult> results;
    {
      auto span = trace.span("optimize.evaluate");
      results = evaluator.evaluate(catalogue_);
    }
    if (probe != nullptr) *probe = evaluator.boot_cache_stats();
    OpResult r;
    r.digest = runs_checksum(results);
    for (const optimize::OptionResult& o : results) {
      for (const optimize::CaseRun& run : o.runs) {
        r.sim_cycles += run.cycles;
        if (!run.halted) {
          r.ok = false;
          r.error = o.option + "/" + run.workload + " did not halt";
        }
      }
    }
    last_results_ = std::move(results);
    return r;
  }

  Options options_;
  std::vector<optimize::WorkloadCase> cases_;
  std::vector<optimize::ArchOption> catalogue_;
  std::vector<optimize::OptionResult> last_results_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

}  // namespace audo::perfbench
