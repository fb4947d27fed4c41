// Host parallel-sweep engine tests: the SimPool determinism contract
// (any job count returns results in submission order, bit-identical to
// serial), the evaluator riding on it, and the predecoded-program cache
// (identical architecture for identical runs, cache on or off).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "helpers.hpp"
#include "host/sim_job.hpp"
#include "host/sim_pool.hpp"
#include "isa/decode_cache.hpp"
#include "optimize/evaluator.hpp"
#include "optimize/options.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"

namespace audo {
namespace {

TEST(SimPool, MapReturnsResultsInSubmissionOrder) {
  host::SimPool pool(4);
  const std::vector<u64> out =
      pool.map<u64>(100, [](usize i) { return static_cast<u64>(i) * i; });
  ASSERT_EQ(out.size(), 100u);
  for (usize i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<u64>(i) * i);
  }
}

TEST(SimPool, EveryIndexRunsExactlyOnce) {
  host::SimPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](usize i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SimPool, SerialMatchesParallel) {
  auto compute = [](unsigned jobs) {
    host::SimPool pool(jobs);
    return pool.map<u64>(37, [](usize i) {
      u64 h = 14695981039346656037ull;
      for (usize k = 0; k <= i; ++k) h = (h ^ k) * 1099511628211ull;
      return h;
    });
  };
  const auto serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(8));
}

TEST(SimPool, ReusableAcrossBatches) {
  // Regression guard for the straggler race: a worker from batch N must
  // not observe batch N+1's task state.
  host::SimPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    const auto out = pool.map<int>(
        16, [&](usize i) { return batch * 100 + static_cast<int>(i); });
    for (usize i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(SimPool, PropagatesFirstException) {
  host::SimPool pool(4);
  EXPECT_THROW(pool.run(8,
                        [](usize i) {
                          if (i == 5) throw std::runtime_error("job 5");
                        }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  const auto out = pool.map<int>(4, [](usize i) { return static_cast<int>(i); });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimPool, JobsAccessors) {
  EXPECT_GE(host::SimPool::hardware_jobs(), 1u);
  EXPECT_EQ(host::SimPool(0).jobs(), host::SimPool::hardware_jobs());
  EXPECT_EQ(host::SimPool(1).jobs(), 1u);
  EXPECT_EQ(host::SimPool(3).jobs(), 3u);
}

// ---- evaluator on the pool ------------------------------------------

// `configures`, when given, counts WorkloadCase::configure calls: one per
// boot of a (config, case) pair.
optimize::ArchitectureEvaluator make_evaluator(
    unsigned jobs, std::atomic<usize>* configures = nullptr) {
  optimize::ArchitectureEvaluator eval{test::small_config()};
  eval.set_jobs(jobs);
  for (const char* name : {"lookup", "fir", "checksum", "sort"}) {
    for (const auto& spec : workload::standard_suite()) {
      if (std::string_view(spec.name) != name) continue;
      auto program = spec.build();
      EXPECT_TRUE(program.is_ok());
      optimize::WorkloadCase wc;
      wc.name = name;
      wc.program = std::move(program).value();
      wc.tc_entry = wc.program.entry();
      if (configures != nullptr) {
        wc.configure = [configures](soc::Soc&) { ++*configures; };
      }
      eval.add_case(std::move(wc));
    }
  }
  return eval;
}

std::vector<optimize::ArchOption> small_catalogue() {
  const auto catalogue = optimize::standard_catalogue();
  std::vector<optimize::ArchOption> picked;
  for (const char* name : {"flash_ws_4", "cache_line_64", "read_buffers_4"}) {
    const auto* option = optimize::find_option(catalogue, name);
    EXPECT_NE(option, nullptr) << name;
    if (option != nullptr) picked.push_back(*option);
  }
  return picked;
}

void expect_same_results(const std::vector<optimize::OptionResult>& a,
                         const std::vector<optimize::OptionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].option, b[i].option) << "ranking order diverged at " << i;
    EXPECT_EQ(a[i].speedup, b[i].speedup);
    EXPECT_EQ(a[i].gain_per_cost, b[i].gain_per_cost);
    ASSERT_EQ(a[i].runs.size(), b[i].runs.size());
    for (usize c = 0; c < a[i].runs.size(); ++c) {
      EXPECT_EQ(a[i].runs[c].workload, b[i].runs[c].workload);
      EXPECT_EQ(a[i].runs[c].cycles, b[i].runs[c].cycles);
      EXPECT_EQ(a[i].runs[c].instructions, b[i].runs[c].instructions);
      EXPECT_EQ(a[i].runs[c].halted, b[i].runs[c].halted);
    }
  }
}

TEST(EvaluatorParallel, BitIdenticalAcrossJobCounts) {
  const std::vector<optimize::ArchOption> catalogue = small_catalogue();
  ASSERT_EQ(catalogue.size(), 3u);
  const auto serial = make_evaluator(1).evaluate(catalogue);
  ASSERT_FALSE(serial.empty());
  expect_same_results(serial, make_evaluator(2).evaluate(catalogue));
  expect_same_results(serial, make_evaluator(8).evaluate(catalogue));
}

TEST(EvaluatorParallel, InteractionsIdenticalAcrossJobCounts) {
  std::vector<optimize::ArchOption> catalogue = small_catalogue();
  ASSERT_GE(catalogue.size(), 2u);
  catalogue.resize(2);
  const auto serial = make_evaluator(1).evaluate_interactions(catalogue);
  const auto parallel = make_evaluator(4).evaluate_interactions(catalogue);
  ASSERT_EQ(serial.size(), parallel.size());
  for (usize i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].option_a, parallel[i].option_a);
    EXPECT_EQ(serial[i].option_b, parallel[i].option_b);
    EXPECT_EQ(serial[i].speedup_a, parallel[i].speedup_a);
    EXPECT_EQ(serial[i].speedup_b, parallel[i].speedup_b);
    EXPECT_EQ(serial[i].speedup_both, parallel[i].speedup_both);
    EXPECT_EQ(serial[i].synergy, parallel[i].synergy);
  }
}

TEST(EvaluatorParallel, BootsEachPairOnceAndRepeatsIdentically) {
  const std::vector<optimize::ArchOption> catalogue = small_catalogue();
  const usize pairs = (1 + catalogue.size()) * 4;  // configs x cases
  for (unsigned jobs : {1u, 4u}) {
    std::atomic<usize> configures{0};
    const optimize::ArchitectureEvaluator eval =
        make_evaluator(jobs, &configures);
    const auto first = eval.evaluate(catalogue);
    EXPECT_EQ(configures.load(), pairs) << "jobs=" << jobs;
    expect_same_results(first, eval.evaluate(catalogue));
    EXPECT_EQ(configures.load(), 2 * pairs) << "jobs=" << jobs;
  }
}

// ---- decode cache ---------------------------------------------------

TEST(DecodeCache, LookupValidatesAgainstMemoryWord) {
  auto program = isa::assemble(test::pspr_text(R"(
    addi d0, d0, 7
    addi d1, d1, 9
    halt
)"));
  ASSERT_TRUE(program.is_ok());
  const auto& sec = program.value().sections().front();
  isa::DecodeCache cache;
  cache.add_section(sec.base, sec.bytes);
  EXPECT_FALSE(cache.empty());

  const u32 word0 = static_cast<u32>(sec.bytes[0]) |
                    static_cast<u32>(sec.bytes[1]) << 8 |
                    static_cast<u32>(sec.bytes[2]) << 16 |
                    static_cast<u32>(sec.bytes[3]) << 24;
  const isa::Instr* hit = cache.lookup(sec.base, word0);
  ASSERT_NE(hit, nullptr);
  const auto fresh = isa::decode(word0);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(hit->opcode, fresh.value().opcode);

  // A word that no longer matches what was predecoded (self-modified
  // code) must miss, as must any address outside the cached sections.
  EXPECT_EQ(cache.lookup(sec.base, word0 ^ 1), nullptr);
  EXPECT_EQ(cache.lookup(sec.base + 0x1000000, word0), nullptr);

  cache.clear();
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(cache.lookup(sec.base, word0), nullptr);
}

TEST(DecodeCacheSoc, EngineRunIdenticalWithCacheOnAndOff) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 80;
  auto w = workload::build_engine_workload(opt);
  ASSERT_TRUE(w.is_ok());

  auto run_one = [&](bool cache_on) {
    auto soc = std::make_unique<soc::Soc>(soc::SocConfig{});
    soc->set_decode_cache_enabled(cache_on);
    EXPECT_EQ(soc->decode_cache_enabled(), cache_on);
    const Status s = workload::install_engine(*soc, w.value());
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    soc->run(200'000);
    return soc;
  };
  const auto with_cache = run_one(true);
  const auto without = run_one(false);

  EXPECT_FALSE(with_cache->decode_cache().empty());
  EXPECT_TRUE(without->decode_cache().empty());

  // Same cycle count, same retirement, same architectural register file:
  // the cache is a pure host-side accelerator.
  EXPECT_EQ(with_cache->cycle(), without->cycle());
  EXPECT_EQ(with_cache->tc().retired(), without->tc().retired());
  EXPECT_EQ(with_cache->tc().halted(), without->tc().halted());
  EXPECT_EQ(with_cache->tc().next_pc(), without->tc().next_pc());
  for (unsigned r = 0; r < 16; ++r) {
    EXPECT_EQ(with_cache->tc().d(r), without->tc().d(r)) << "d" << r;
    EXPECT_EQ(with_cache->tc().a(r), without->tc().a(r)) << "a" << r;
  }
  ASSERT_NE(with_cache->pcp(), nullptr);
  ASSERT_NE(without->pcp(), nullptr);
  EXPECT_EQ(with_cache->pcp()->retired(), without->pcp()->retired());
}

// ---- SimJob ---------------------------------------------------------

TEST(SimJob, RunsProgramAndReportsLoadFailure) {
  auto program = isa::assemble(test::pspr_text("    addi d0, d0, 1\n    halt\n"));
  ASSERT_TRUE(program.is_ok());

  host::SimJob job;
  job.config = test::small_config();
  job.program = &program.value();
  job.tc_entry = program.value().entry();
  job.max_cycles = 10'000;
  const host::SimJobResult ok = job.run();
  EXPECT_TRUE(ok.loaded);
  EXPECT_TRUE(ok.halted);
  EXPECT_GT(ok.cycles, 0u);
  EXPECT_GT(ok.instructions, 0u);

  // A program that does not fit the tiny config must surface as
  // loaded=false (the evaluator turns that into the seed's empty
  // CaseRun), not crash the worker.
  auto huge = isa::assemble("    .text 0xB0000000\nmain:\n    halt\n");
  ASSERT_TRUE(huge.is_ok());
  job.program = &huge.value();
  const host::SimJobResult bad = job.run();
  EXPECT_FALSE(bad.loaded);
  EXPECT_EQ(bad.cycles, 0u);
}

TEST(SimJob, BudgetExhaustionIsReportedNotThrown) {
  // An infinite loop must come back as a result, not hang the pool.
  auto spin = isa::assemble(test::pspr_text("loop:\n    j loop\n"));
  ASSERT_TRUE(spin.is_ok());

  host::SimJob job;
  job.config = test::small_config();
  job.program = &spin.value();
  job.tc_entry = spin.value().entry();
  job.max_cycles = 5'000;
  const host::SimJobResult r = job.run();
  EXPECT_TRUE(r.loaded);
  EXPECT_FALSE(r.halted);
  EXPECT_TRUE(r.budget_exceeded);
  EXPECT_EQ(r.cycles, 5'000u);

  // A halting program does not trip the flag.
  auto halts = isa::assemble(test::pspr_text("    halt\n"));
  ASSERT_TRUE(halts.is_ok());
  job.program = &halts.value();
  job.tc_entry = halts.value().entry();
  const host::SimJobResult ok = job.run();
  EXPECT_TRUE(ok.halted);
  EXPECT_FALSE(ok.budget_exceeded);
}

}  // namespace
}  // namespace audo
