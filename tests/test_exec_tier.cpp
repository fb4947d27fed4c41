// Execution-tier bit-identity suite (see DESIGN.md, "Execution tiers"):
// the superblock fast tier is a host-side speed optimization and must be
// *observably identical* to the accurate stepper — per-cycle observation
// frames, MCDS counter/message streams, stall attribution, execution-DAG
// hashes and fault-campaign classifications all match bit for bit. The
// only permitted difference is host wall-clock.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "helpers.hpp"
#include "optimize/fault_campaign.hpp"
#include "profiling/cpi_stack.hpp"
#include "profiling/dag.hpp"
#include "profiling/export.hpp"
#include "profiling/session.hpp"
#include "soc/frame_digest.hpp"
#include "telemetry/metrics.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

using ExecTier = soc::SocConfig::ExecTier;

// Per-cycle frame fingerprinting comes from soc/frame_digest.hpp — the
// same enumeration the replay goldens hash, so this suite and the replay
// lab can never disagree about what "the frame stream" covers.
using FrameHasher = soc::FrameStreamHasher;

// ---- whole-run observation ------------------------------------------

/// Everything we require to be identical between the two tiers.
struct Observed {
  u64 steps = 0;
  u64 cycles = 0;
  u64 retired = 0;
  bool halted = false;
  u64 frames = 0;
  u64 frame_hash = 0;
  std::vector<std::string> metrics;  // "component/name=value"
  std::string cpi_csv;
  std::string interference_csv;
};

template <typename Workload, typename Install>
Observed run_tier(const Workload& w, Install install, ExecTier tier,
                  u64 max_cycles, bool fast_forward = true) {
  soc::SocConfig config = test::small_config();
  config.exec_tier = tier;
  config.fast_forward = fast_forward;
  soc::Soc soc(config);
  profiling::CpiStackBuilder cpi{isa::SymbolMap(w.program)};
  FrameHasher hasher;
  soc.add_frame_observer(&cpi);
  soc.add_frame_observer(&hasher);
  telemetry::MetricsRegistry registry;
  soc.register_metrics(registry);
  EXPECT_TRUE(install(soc, w).is_ok());
  Observed o;
  o.steps = soc.run(max_cycles);
  o.cycles = soc.cycle();
  o.retired = soc.tc().retired();
  o.halted = soc.tc().halted();
  o.frames = hasher.frames;
  o.frame_hash = hasher.hash;
  for (const telemetry::MetricSample& s :
       registry.collect(soc.cycle()).samples) {
    // The exec/ coverage counters are host-side observability that by
    // definition differs between tiers (that's what they measure).
    if (s.component == "exec") continue;
    o.metrics.push_back(s.component + "/" + s.name + "=" +
                        std::to_string(s.value));
  }
  o.cpi_csv = cpi.to_csv();
  o.interference_csv = profiling::interference_to_csv(soc.sri());
  return o;
}

void expect_identical(const Observed& fast, const Observed& accurate) {
  EXPECT_EQ(fast.steps, accurate.steps);
  EXPECT_EQ(fast.cycles, accurate.cycles);
  EXPECT_EQ(fast.retired, accurate.retired);
  EXPECT_EQ(fast.halted, accurate.halted);
  EXPECT_EQ(fast.frames, accurate.frames);
  EXPECT_EQ(fast.frame_hash, accurate.frame_hash);
  EXPECT_EQ(fast.metrics, accurate.metrics);
  EXPECT_EQ(fast.cpi_csv, accurate.cpi_csv);
  EXPECT_EQ(fast.interference_csv, accurate.interference_csv);
}

const auto kInstallEngine = [](soc::Soc& soc,
                               const workload::EngineWorkload& w) {
  return workload::install_engine(soc, w);
};
const auto kInstallTransmission = [](soc::Soc& soc,
                                     const workload::TransmissionWorkload& w) {
  return workload::install_transmission(soc, w);
};

workload::EngineWorkload busy_engine() {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.halt_after_bg = 40;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok()) << w.status().to_string();
  return std::move(w).value();
}

workload::EngineWorkload idle_engine(u32 halt_after_revs) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = halt_after_revs;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok()) << w.status().to_string();
  return std::move(w).value();
}

// ---- SoC-level bit identity -----------------------------------------

TEST(ExecTier, BusyEngineBitIdentical) {
  const auto w = busy_engine();
  const Observed fast =
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000);
  const Observed accurate =
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
}

TEST(ExecTier, TransmissionBitIdentical) {
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 6;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const auto& w = built.value();
  const Observed fast =
      run_tier(w, kInstallTransmission, ExecTier::kSuperblock, 5'000'000);
  const Observed accurate =
      run_tier(w, kInstallTransmission, ExecTier::kAccurate, 5'000'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
}

TEST(ExecTier, FastForwardTierGridBitIdentical) {
  // All four fast_forward x exec_tier combinations agree: superblock
  // windows and idle skips compose without perturbing each other.
  // Within one fast-forward setting the comparison is total (frame-hash
  // stream included). Across settings the sim/ff.* accounting and the
  // frame *delivery shape* are the two permitted differences: a skip
  // folds n identical idle frames into one skip_idle() call, so the raw
  // observer stream hashes differently by design — the fast-forward
  // suite proves that equivalence through its own channels.
  const auto strip_ff = [](Observed o) {
    std::erase_if(o.metrics, [](const std::string& m) {
      return m.rfind("sim/ff.", 0) == 0;
    });
    return o;
  };
  const auto w = idle_engine(4);
  const Observed acc_off = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000, false));
  const Observed sb_off = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000, false));
  const Observed acc_on = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000, true));
  const Observed sb_on = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000, true));
  EXPECT_TRUE(acc_off.halted);
  expect_identical(sb_off, acc_off);
  expect_identical(sb_on, acc_on);
  EXPECT_EQ(acc_on.steps, acc_off.steps);
  EXPECT_EQ(acc_on.cycles, acc_off.cycles);
  EXPECT_EQ(acc_on.retired, acc_off.retired);
  EXPECT_EQ(acc_on.frames, acc_off.frames);
  EXPECT_EQ(acc_on.metrics, acc_off.metrics);
  EXPECT_EQ(acc_on.cpi_csv, acc_off.cpi_csv);
  EXPECT_EQ(acc_on.interference_csv, acc_off.interference_csv);
}

TEST(ExecTier, BudgetTruncationBitIdentical) {
  // A budget boundary landing inside a superblock window must stop at
  // exactly the budgeted cycle, like the stepper does.
  const auto w = busy_engine();  // runs ~21k cycles to halt
  for (const u64 budget : {3'000ull, 10'000ull, 20'000ull}) {
    const Observed fast =
        run_tier(w, kInstallEngine, ExecTier::kSuperblock, budget);
    const Observed accurate =
        run_tier(w, kInstallEngine, ExecTier::kAccurate, budget);
    EXPECT_EQ(fast.steps, budget);
    expect_identical(fast, accurate);
  }
}

// ---- MCDS / profiling bit identity ----------------------------------

profiling::SessionResult profile_engine(ExecTier tier, bool program_trace) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.exec_tier = tier;
  profiling::SessionOptions options;
  options.resolution = 500;
  options.program_trace = program_trace;
  options.irq_trace = program_trace;
  profiling::ProfilingSession session(chip, options);
  EXPECT_TRUE(session.load(w.value().program).is_ok());
  workload::configure_engine(session.device().soc(), w.value().options);
  session.reset(w.value().tc_entry, w.value().pcp_entry);
  return session.run(3'000'000);
}

void expect_sessions_identical(const profiling::SessionResult& fast,
                               const profiling::SessionResult& accurate) {
  EXPECT_EQ(fast.cycles, accurate.cycles);
  EXPECT_EQ(fast.tc_retired, accurate.tc_retired);
  EXPECT_EQ(fast.trace_bytes, accurate.trace_bytes);
  EXPECT_EQ(fast.trace_messages, accurate.trace_messages);
  EXPECT_EQ(fast.dropped_messages, accurate.dropped_messages);
  ASSERT_EQ(fast.messages.size(), accurate.messages.size());
  for (usize i = 0; i < fast.messages.size(); ++i) {
    EXPECT_EQ(fast.messages[i], accurate.messages[i]) << "message " << i;
  }
}

TEST(ExecTier, McdsCountersBitIdentical) {
  const auto fast = profile_engine(ExecTier::kSuperblock, false);
  const auto accurate = profile_engine(ExecTier::kAccurate, false);
  EXPECT_GT(fast.trace_messages, 0u);
  expect_sessions_identical(fast, accurate);
}

TEST(ExecTier, McdsFlowTraceBitIdentical) {
  const auto fast = profile_engine(ExecTier::kSuperblock, true);
  const auto accurate = profile_engine(ExecTier::kAccurate, true);
  EXPECT_GT(fast.trace_messages, 0u);
  expect_sessions_identical(fast, accurate);
}

// ---- execution-DAG bit identity -------------------------------------

TEST(ExecTier, DagHashBitIdentical) {
  const auto w = idle_engine(4);
  u64 hashes[2];
  std::string csv[2];
  for (const ExecTier tier : {ExecTier::kSuperblock, ExecTier::kAccurate}) {
    soc::SocConfig config = test::small_config();
    config.exec_tier = tier;
    soc::Soc soc(config);
    profiling::ExecutionDag dag{isa::SymbolMap(w.program)};
    soc.add_frame_observer(&dag);
    ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
    soc.run(5'000'000);
    EXPECT_TRUE(soc.tc().halted());
    const unsigned i = tier == ExecTier::kSuperblock ? 0 : 1;
    hashes[i] = dag.analysis().hash;
    csv[i] = dag.to_csv();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(csv[0], csv[1]);
}

// ---- fault-campaign determinism -------------------------------------

u64 campaign_hash(ExecTier tier, unsigned jobs) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto engine = workload::build_engine_workload(opt);
  EXPECT_TRUE(engine.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.exec_tier = tier;

  optimize::WorkloadCase wc;
  wc.name = "engine-idle";
  wc.program = engine.value().program;
  wc.tc_entry = engine.value().tc_entry;
  wc.pcp_entry = engine.value().pcp_entry;
  wc.configure = [options = engine.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = 400'000;

  optimize::FaultCampaign campaign(chip, std::move(wc));
  campaign.set_jobs(jobs);
  const auto plan = campaign.make_scenarios(7, 8);
  return campaign.run(plan).classification_hash();
}

TEST(ExecTier, FaultCampaignHashIdenticalAcrossTiersAndJobs) {
  const u64 reference = campaign_hash(ExecTier::kAccurate, 1);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    EXPECT_EQ(campaign_hash(ExecTier::kSuperblock, jobs), reference)
        << "jobs=" << jobs;
  }
}

// ---- self-modifying code --------------------------------------------

// A loop that patches one of its own instructions mid-run: the word at
// patch_dst starts as a nop and is overwritten (a guest store into the
// executing superblock's address range) with "add d5, d5, d1" once the
// counter reaches 200. d5 then counts the remaining 200 iterations.
constexpr std::string_view kSelfModifying = R"(
    .text 0xC8000000
main:
    movd d0, 0            ; iteration counter
    movd d1, 1
    movd d2, 400          ; total iterations
    movd d3, 200          ; patch once, at iteration 200
    movd d5, 0            ; counts executions of the patched op
    movha a15, 0xC800
    lea  a2, [a15+lo(patch_src)]
    lea  a3, [a15+lo(patch_dst)]
    ld.w d4, [a2+0]       ; the replacement instruction word
loop:
    add  d0, d0, d1
patch_dst:
    nop                   ; becomes "add d5, d5, d1" mid-run
    jne  d0, d3, skip
    st.w d4, [a3+0]       ; store into the hot code region
skip:
    jne  d0, d2, loop
    halt
patch_src:
    add  d5, d5, d1
)";

TEST(ExecTier, SelfModifyingCodeBitIdentical) {
  // Both tiers must observe the patch at the same cycle: the superblock
  // covering the loop is invalidated by the store and rebuilt from the
  // patched words on re-entry.
  auto program = isa::assemble(kSelfModifying);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  Observed results[2];
  for (const ExecTier tier : {ExecTier::kSuperblock, ExecTier::kAccurate}) {
    soc::SocConfig config = test::small_config();
    config.exec_tier = tier;
    soc::Soc soc(config);
    FrameHasher hasher;
    soc.add_frame_observer(&hasher);
    ASSERT_TRUE(soc.load(program.value()).is_ok());
    soc.reset(program.value().entry());
    const unsigned i = tier == ExecTier::kSuperblock ? 0 : 1;
    results[i].steps = soc.run(5'000'000);
    results[i].cycles = soc.cycle();
    results[i].retired = soc.tc().retired();
    results[i].halted = soc.tc().halted();
    results[i].frames = hasher.frames;
    results[i].frame_hash = hasher.hash;
    EXPECT_TRUE(soc.tc().halted());
    EXPECT_EQ(soc.tc().d(0), 400u);
    EXPECT_EQ(soc.tc().d(5), 200u);  // patched op ran for the back half
    if (tier == ExecTier::kSuperblock) {
      // The fast tier really was active on this code, and the store
      // really did drop predecoded chunks.
      EXPECT_GT(soc.superblocks().stats().builds, 0u);
      EXPECT_GT(soc.superblocks().stats().invalidations, 0u);
    }
  }
  EXPECT_EQ(results[0].steps, results[1].steps);
  EXPECT_EQ(results[0].cycles, results[1].cycles);
  EXPECT_EQ(results[0].retired, results[1].retired);
  EXPECT_EQ(results[0].frames, results[1].frames);
  EXPECT_EQ(results[0].frame_hash, results[1].frame_hash);
}

// ---- snapshot / restore invalidation --------------------------------

// Two same-shape programs at the same PSPR address whose loop bodies
// differ in exactly one instruction (version B runs the d5 accumulator
// twice per iteration).
constexpr std::string_view kLoopA = R"(
    .text 0xC8000000
main:
    movd d0, 0
    movd d1, 1
    movd d2, 100
    movd d5, 0
loop:
    add  d0, d0, d1
    add  d5, d5, d1
    nop
    jne  d0, d2, loop
    halt
)";

constexpr std::string_view kLoopB = R"(
    .text 0xC8000000
main:
    movd d0, 0
    movd d1, 1
    movd d2, 100
    movd d5, 0
loop:
    add  d0, d0, d1
    add  d5, d5, d1
    add  d5, d5, d1
    jne  d0, d2, loop
    halt
)";

TEST(ExecTier, RestoreSnapshotDropsStaleSuperblocks) {
  // restore_state rewrites code memory *without* going through the
  // store-path write listener, so the restore itself must drop every
  // predecoded chunk. If it didn't, the fast tier would keep executing
  // program B's decodes after the machine was restored to program A.
  auto a = isa::assemble(kLoopA);
  auto b = isa::assemble(kLoopB);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();

  soc::SocConfig config = test::small_config();
  config.exec_tier = ExecTier::kSuperblock;
  soc::Soc soc(config);

  // Run program A to halt and snapshot the halted (quiescent) machine.
  ASSERT_TRUE(soc.load(a.value()).is_ok());
  soc.reset(a.value().entry());
  soc.run(1'000'000);
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.tc().d(5), 100u);
  const u64 cycles_a = soc.cycle();
  auto snap = soc.save_snapshot();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();

  // Run program B at the same address: its superblocks now populate the
  // cache for the very PCs program A uses.
  ASSERT_TRUE(soc.load(b.value()).is_ok());
  soc.reset(b.value().entry());
  soc.run(1'000'000);
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.tc().d(5), 200u);
  EXPECT_GT(soc.superblocks().stats().builds, 0u);

  // Restore to the post-A image and rerun from entry: the machine must
  // execute A's code (d5 == 100), not B's stale decodes (d5 == 200).
  ASSERT_TRUE(soc.restore_snapshot(snap.value()).is_ok());
  soc.reset(a.value().entry());
  soc.run(1'000'000);
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.tc().d(0), 100u);
  EXPECT_EQ(soc.tc().d(5), 100u);
  EXPECT_EQ(soc.cycle(), cycles_a);
}

}  // namespace
}  // namespace audo
