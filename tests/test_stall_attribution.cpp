// Cross-layer stall attribution (DESIGN.md, "Stall attribution &
// interference matrix"): conservation invariants on real workloads, the
// documented stall-symptom precedence, exact CPI-stack decomposition and
// the crossbar interference-matrix bookkeeping.
#include <gtest/gtest.h>

#include <string>

#include "helpers.hpp"
#include "profiling/cpi_stack.hpp"
#include "profiling/export.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

using mcds::StallRootCause;

/// Sum over all (waiter, holder) pairs for one slave.
u64 slave_interference(const bus::Crossbar& sri, unsigned s) {
  u64 total = 0;
  for (unsigned w = 0; w < bus::kNumMasters; ++w) {
    for (unsigned h = 0; h < bus::kNumMasters; ++h) {
      total += sri.interference(static_cast<bus::MasterId>(w),
                                static_cast<bus::MasterId>(h), s);
    }
  }
  return total;
}

/// The conservation checks every run must satisfy:
///  * per-core root-cause buckets partition the core's cycles;
///  * per-function CPI stacks decompose exactly (cycles = issue + stalls)
///    and their sum covers every observed TC cycle;
///  * per-slave interference equals wait cycles minus grants (each
///    granted request waited exactly one non-blocked cycle — its grant
///    cycle; every other waiting master-cycle is a blocked one).
void check_invariants(const soc::Soc& soc,
                      const profiling::CpiStackBuilder& builder) {
  const soc::StallTotals& tc = soc.tc_stall_totals();
  EXPECT_EQ(tc.total(), soc.tc().cycles());
  EXPECT_GT(tc[StallRootCause::kNone], 0u);  // some cycles issued
  if (soc.pcp() != nullptr) {
    EXPECT_EQ(soc.pcp_stall_totals().total(), soc.pcp()->cycles());
  }

  u64 function_cycles = 0;
  for (const profiling::CpiStackEntry& e : builder.stacks()) {
    u64 stall_sum = 0;
    for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
      stall_sum += e.stall[r];
    }
    EXPECT_EQ(e.cycles, e.issue_cycles + stall_sum) << e.name;
    EXPECT_EQ(e.stall_cycles(), stall_sum) << e.name;
    function_cycles += e.cycles;
  }
  EXPECT_EQ(function_cycles, builder.observed_cycles());
  EXPECT_EQ(builder.observed_cycles(), soc.tc().cycles());
  const profiling::CpiStackEntry total = builder.total();
  EXPECT_EQ(total.cycles, function_cycles);

  for (unsigned s = 0; s < soc.sri().slave_count(); ++s) {
    const bus::SlaveStats& stats = soc.sri().slave_stats(s);
    EXPECT_EQ(slave_interference(soc.sri(), s),
              stats.wait_cycles - stats.grants)
        << "slave " << soc.sri().slave_name(s);
  }
}

TEST(StallAttribution, EngineWorkloadConservation) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.halt_after_bg = 30;
  auto built = workload::build_engine_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  soc::Soc soc(test::small_config());
  profiling::CpiStackBuilder builder{isa::SymbolMap(built.value().program)};
  soc.add_frame_observer(&builder);
  ASSERT_TRUE(workload::install_engine(soc, built.value()).is_ok());
  soc.run(5'000'000);
  ASSERT_TRUE(soc.tc().halted());

  check_invariants(soc, builder);
  // The engine workload stalls on real memory: at least one memory-
  // hierarchy bucket must be populated.
  const soc::StallTotals& tc = soc.tc_stall_totals();
  EXPECT_GT(tc[StallRootCause::kFlashBuffer] +
                tc[StallRootCause::kFlashRead] +
                tc[StallRootCause::kFlashPortConflict] +
                tc[StallRootCause::kBusArbitration] +
                tc[StallRootCause::kBusSlaveBusy],
            0u);
}

TEST(StallAttribution, TransmissionWorkloadConservation) {
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 6;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();

  soc::Soc soc(test::small_config());
  profiling::CpiStackBuilder builder{isa::SymbolMap(built.value().program)};
  soc.add_frame_observer(&builder);
  ASSERT_TRUE(workload::install_transmission(soc, built.value()).is_ok());
  soc.run(5'000'000);
  ASSERT_TRUE(soc.tc().halted());

  check_invariants(soc, builder);
}

// ---- symptom precedence (documented in cpu.cpp) ---------------------

TEST(StallAttribution, SymptomPrecedence) {
  // Dependent loads from the (multi-cycle) LMU inside a flash-resident
  // loop, with both caches off: fetch regularly sits on the bus while
  // the oldest queued instruction waits for its load operand. The
  // documented tie-break says the data side wins — a cycle with a fetch
  // outstanding AND a pending load-use reports kLoadUse, never kIFetch
  // (kIFetch requires an *empty* fetch queue).
  constexpr std::string_view kSource = R"(
    .text 0x80000000
main:
    movha a2, 0x9000      ; LMU base
    movd  d3, 200
    mov.ad a3, d3
top:
    ld.w  d1, [a2+0]
    add   d2, d1, d1      ; load-use dependency
    ld.w  d4, [a2+4]
    add   d5, d4, d4
    loop  a3, top
    halt
)";
  soc::SocConfig config = test::small_config();
  config.icache.enabled = false;
  config.dcache.enabled = false;

  auto program = isa::assemble(kSource);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(config);
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());

  u64 coinciding = 0;
  for (u64 i = 0; i < 200'000 && !soc.tc().halted(); ++i) {
    soc.step();
    const mcds::CoreObservation& tc = soc.frame().tc;
    // Every present-core cycle gets exactly one root cause.
    ASSERT_NE(tc.attr.root, StallRootCause::kCount);
    ASSERT_EQ(tc.attr.symptom, tc.stall);
    if (tc.retired == 0 && soc.tc().fetch_on_bus() &&
        tc.stall == mcds::StallCause::kLoadUse) {
      ++coinciding;
      // The data-side walk must have attributed it — never to the
      // fetch side or a generic frontend bubble.
      EXPECT_NE(tc.attr.root, StallRootCause::kFrontend);
      EXPECT_NE(tc.attr.root, StallRootCause::kNone);
    }
    // The converse direction of the tie-break: kIFetch is only ever
    // reported with the fetch side responsible, so its walk never lands
    // in the core-internal kExec bucket.
    if (tc.stall == mcds::StallCause::kIFetch) {
      EXPECT_NE(tc.attr.root, StallRootCause::kExec);
    }
  }
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_GT(coinciding, 0u);
  EXPECT_EQ(soc.tc_stall_totals().total(), soc.tc().cycles());
}

// ---- attribution detail -------------------------------------------------

TEST(StallAttribution, FlashStallsCarryBlockingSlave) {
  // Uncached straight-line flash execution: kIFetch stalls walk the
  // fetch port onto the flash code slave, and the root must be one of
  // the flash service classes with the slave recorded.
  constexpr std::string_view kSource = R"(
    .text 0x80000000
main:
    add d0, d0, d0
    add d1, d1, d1
    add d2, d2, d2
    add d3, d3, d3
    add d4, d4, d4
    add d5, d5, d5
    add d6, d6, d6
    add d7, d7, d7
    halt
)";
  soc::SocConfig config = test::small_config();
  config.icache.enabled = false;
  config.dcache.enabled = false;

  auto program = isa::assemble(kSource);
  ASSERT_TRUE(program.is_ok());
  soc::Soc soc(config);
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());

  u64 flash_rooted = 0;
  while (!soc.tc().halted()) {
    soc.step();
    const mcds::StallAttribution& attr = soc.frame().tc.attr;
    if (attr.root == StallRootCause::kFlashRead ||
        attr.root == StallRootCause::kFlashBuffer ||
        attr.root == StallRootCause::kFlashPortConflict) {
      ++flash_rooted;
      EXPECT_NE(attr.blocking_slave, mcds::StallAttribution::kNoSlave);
    }
  }
  EXPECT_GT(flash_rooted, 0u);
  const soc::StallTotals& tc = soc.tc_stall_totals();
  EXPECT_EQ(tc.total(), soc.tc().cycles());
}

TEST(StallAttribution, InterferenceMatrixRecordsContention) {
  // Code *and* data both in the LMU: the TC fetch master and the TC data
  // master fight over one slave every loop iteration, so the crossbar
  // must record real blocked master-cycles — and the matrix must obey
  // the exact accounting identity against the slave's wait/grant stats.
  constexpr std::string_view kSource = R"(
    .text 0x90000000
main:
    movha a2, 0x9000
    movd  d3, 300
    mov.ad a3, d3
top:
    ld.w  d1, [a2+0]
    st.w  d1, [a2+4]
    add   d2, d1, d1
    loop  a3, top
    halt
)";
  auto program = isa::assemble(kSource);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());
  soc.run(1'000'000);
  ASSERT_TRUE(soc.tc().halted());

  const bus::Crossbar& sri = soc.sri();
  int lmu = -1;
  for (unsigned s = 0; s < sri.slave_count(); ++s) {
    if (sri.slave_name(s) == "LMU") lmu = static_cast<int>(s);
  }
  ASSERT_GE(lmu, 0);
  const unsigned s = static_cast<unsigned>(lmu);
  const bus::SlaveStats& stats = sri.slave_stats(s);
  EXPECT_GT(slave_interference(sri, s), 0u);
  EXPECT_EQ(slave_interference(sri, s), stats.wait_cycles - stats.grants);
  // The loser is the fetch master, blocked by the (higher-priority) data
  // master.
  EXPECT_GT(sri.interference(bus::MasterId::kTcFetch, bus::MasterId::kTcData,
                             s),
            0u);
  // The exports see the same contention.
  const std::string text = profiling::interference_to_text(sri);
  EXPECT_NE(text.find("LMU"), std::string::npos);
  const std::string csv = profiling::interference_to_csv(sri);
  EXPECT_NE(csv.find("LMU,TC.I,TC.D,"), std::string::npos);
}

}  // namespace
}  // namespace audo
