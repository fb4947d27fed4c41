// Record/replay regression lab tests: ReplaySpec JSON round-tripping
// and strict rejection of corrupt goldens, the differential replay
// oracle passing bit-identically on honest reruns under either exec tier
// and fast-forward setting, and seeded architecture mutations caught at
// the independently verified first divergent cycle — early or late in
// the run, in every host mode, from plain-SoC and profiling-session
// goldens alike.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "profiling/session.hpp"
#include "replay/oracle.hpp"
#include "replay/replay.hpp"
#include "soc/frame_digest.hpp"
#include "soc/soc.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

// ---- recording fixtures ----------------------------------------------

// Busy-loop engine, short enough to keep every test fast.
workload::EngineOptions busy_engine_options() {
  workload::EngineOptions opt;
  opt.halt_after_bg = 0;  // run to the cycle budget
  return opt;
}

// Idle-background engine with the CAN ring in the LMU: WFI park between
// interrupts (idle skips happen) and the first LMU access only happens
// when the first CAN frame arrives (can_rx_period cycles in) — an
// lmu_latency mutation therefore first diverges windows into the run.
workload::EngineOptions idle_lmu_engine_options() {
  workload::EngineOptions opt;
  opt.idle_background = true;
  opt.can_ring_in_lmu = true;
  return opt;
}

// Record a plain-soc (no profiling session) golden: run the workload on
// a fresh Soc with the canonical windowed digest attached — exactly the
// capture audo-profile --record performs, minus the MCDS session.
replay::ReplaySpec record_plain(const soc::SocConfig& cfg,
                                const replay::ScenarioSpec& scenario,
                                u32 window_bits) {
  replay::ReplaySpec spec;
  spec.name = scenario.kind;
  spec.scenario = scenario;
  spec.scenario.session.enabled = false;
  spec.config = cfg;
  spec.config_fingerprint = cfg.fingerprint();

  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  isa::Program program;
  if (scenario.kind == "engine") {
    auto built = workload::build_engine_workload(scenario.engine);
    EXPECT_TRUE(built.is_ok()) << built.status().to_string();
    tc_entry = built.value().tc_entry;
    pcp_entry = built.value().pcp_entry;
    program = std::move(built).value().program;
  } else {
    auto built = workload::build_transmission_workload(scenario.transmission);
    EXPECT_TRUE(built.is_ok()) << built.status().to_string();
    tc_entry = built.value().tc_entry;
    program = std::move(built).value().program;
  }

  soc::Soc soc(cfg);
  EXPECT_TRUE(soc.load(program).is_ok());
  if (scenario.kind == "engine") {
    workload::configure_engine(soc, scenario.engine);
  } else {
    workload::configure_transmission(soc, scenario.transmission);
  }
  soc::WindowedFrameDigest recorder(window_bits);
  soc.add_frame_observer(&recorder);
  soc.reset(tc_entry, pcp_entry);
  soc.run(scenario.run_cycles);

  spec.digests.window_bits = window_bits;
  spec.digests.windows = recorder.finish();
  spec.digests.total_frames = recorder.total_frames();
  spec.digests.stream = recorder.stream_digest();
  spec.cycles = soc.cycle();
  spec.instructions = soc.tc().retired();
  return spec;
}

// Record a session golden of an engine scenario: the same capture
// audo-profile --record performs, the digest attached to the SoC inside
// a ProfilingSession that also yields the MCDS and DAG digests.
replay::ReplaySpec record_session(const soc::SocConfig& cfg,
                                  const replay::ScenarioSpec& scenario,
                                  const profiling::SessionOptions& options,
                                  u32 window_bits) {
  auto built = workload::build_engine_workload(scenario.engine);
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  profiling::ProfilingSession session(cfg, options);
  EXPECT_TRUE(session.load(built.value().program).is_ok());
  workload::configure_engine(session.device().soc(), scenario.engine);
  soc::WindowedFrameDigest recorder(window_bits);
  session.device().soc().add_frame_observer(&recorder);
  session.reset(built.value().tc_entry, built.value().pcp_entry);
  const profiling::SessionResult result = session.run(scenario.run_cycles);
  recorder.finish();

  replay::ReplaySpec spec;
  spec.name = scenario.kind;
  spec.scenario = scenario;
  spec.scenario.session.enabled = true;
  spec.scenario.session.resolution = options.resolution;
  spec.scenario.session.program_trace = options.program_trace;
  spec.scenario.session.irq_trace = options.irq_trace;
  spec.scenario.session.dag = options.dag;
  spec.config = cfg;
  spec.config_fingerprint = cfg.fingerprint();
  spec.cycles = session.device().soc().cycle();
  spec.instructions = session.device().soc().tc().retired();
  spec.digests.window_bits = window_bits;
  spec.digests.total_frames = recorder.total_frames();
  spec.digests.stream = recorder.stream_digest();
  spec.digests.windows = recorder.windows();
  spec.digests.mcds_messages = result.messages.size();
  spec.digests.mcds_hash = replay::hash_messages(result.messages);
  if (session.dag() != nullptr) {
    spec.digests.dag_hash = session.dag()->analysis().hash;
  }
  return spec;
}

// Per-cycle fingerprint tape: the independent ground truth the
// first-divergence assertions compare the oracle's answer against.
class FingerprintTape final : public soc::FrameObserver {
 public:
  std::vector<u64> fps;  // fps[i] = fingerprint of cycle i + 1

  void observe(const mcds::ObservationFrame& frame) override {
    fps.push_back(soc::frame_fingerprint(frame));
  }
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override {
    const u64 fp = soc::frame_fingerprint(idle);
    for (u64 i = 0; i < n; ++i) fps.push_back(fp);
  }
};

std::vector<u64> fingerprint_run(const soc::SocConfig& cfg,
                                 const replay::ScenarioSpec& scenario) {
  auto built = workload::build_engine_workload(scenario.engine);
  EXPECT_TRUE(built.is_ok());
  soc::Soc soc(cfg);
  EXPECT_TRUE(soc.load(built.value().program).is_ok());
  workload::configure_engine(soc, scenario.engine);
  FingerprintTape tape;
  soc.add_frame_observer(&tape);
  soc.reset(built.value().tc_entry, built.value().pcp_entry);
  soc.run(scenario.run_cycles);
  return tape.fps;
}

// First cycle whose fingerprint differs between two tapes (1-based),
// or 0 when they match over the common prefix and length.
u64 first_divergent_cycle(const std::vector<u64>& a,
                          const std::vector<u64>& b) {
  const usize n = std::min(a.size(), b.size());
  for (usize i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i + 1;
  }
  return a.size() == b.size() ? 0 : n + 1;
}

// ---- pinned digest definition ------------------------------------------

// A hand-built frame with every section set: each field takes the next
// value of a seeded sequence, so no two fields (or frames) coincide.
// `completed` and `raises` size the variable-length SRI / IRQ sections.
mcds::ObservationFrame pinned_frame(u64 seed, unsigned completed,
                                    unsigned raises) {
  u64 k = seed * 1000;
  const auto next = [&k] { return ++k * 0x9E3779B97F4A7C15ull >> 17; };
  const auto bit = [&next] { return (next() & 1) != 0; };
  const auto master = [&next] {
    return static_cast<bus::MasterId>(next() % (bus::kNumMasters + 1));
  };
  mcds::ObservationFrame f;
  f.cycle = next();
  for (mcds::CoreObservation* c : {&f.tc, &f.pcp}) {
    c->present = bit();
    c->retired = static_cast<u8>(next() % 4);
    c->retire_pc = static_cast<Addr>(next());
    c->stall = static_cast<mcds::StallCause>(next() % 7);
    c->attr.symptom = static_cast<mcds::StallCause>(next() % 7);
    c->attr.root = static_cast<mcds::StallRootCause>(
        next() % mcds::kNumStallRootCauses);
    c->attr.blocking_master = master();
    c->attr.blocking_slave = static_cast<u8>(next());
    c->discontinuity = bit();
    c->discontinuity_target = static_cast<Addr>(next());
    c->irq_entry = bit();
    c->irq_prio = static_cast<u8>(next());
    c->irq_exit = bit();
    c->trap_entry = bit();
    c->trap_class = static_cast<u8>(next());
    c->debug_marker = bit();
    c->data_access = bit();
    c->data_write = bit();
    c->data_addr = static_cast<Addr>(next());
    c->data_value = static_cast<u32>(next());
    c->data_bytes = static_cast<u8>(next());
    c->icache_access = bit();
    c->icache_hit = bit();
    c->icache_miss = bit();
    c->dcache_access = bit();
    c->dcache_hit = bit();
    c->dcache_miss = bit();
    c->dspr_access = bit();
    c->flash_data_access = bit();
    c->sram_data_access = bit();
    c->periph_data_access = bit();
  }
  f.sri.any_grant = bit();
  f.sri.granted_master = master();
  f.sri.granted_slave = static_cast<unsigned>(next());
  f.sri.granted_addr = static_cast<Addr>(next());
  f.sri.granted_write = bit();
  f.sri.contention = bit();
  f.sri.waiting_masters = static_cast<unsigned>(next());
  f.sri.error_response = bit();
  f.sri.error_master = master();
  f.sri.completed_count = completed;
  for (unsigned i = 0; i < completed; ++i) {
    bus::CompletedTransaction& t = f.sri.completed[i];
    t.master = master();
    t.slave = static_cast<u8>(next());
    t.addr = static_cast<Addr>(next());
    t.write = bit();
    t.fetch = bit();
    t.issued_at = next();
    t.granted_at = next();
  }
  f.flash.code_access = bit();
  f.flash.code_buffer_hit = bit();
  f.flash.data_access = bit();
  f.flash.data_buffer_hit = bit();
  f.flash.array_conflict = bit();
  f.dma.transfer = bit();
  f.dma.channel = static_cast<u8>(next());
  f.safety.ecc_corrected = static_cast<u8>(next());
  f.safety.ecc_uncorrectable = static_cast<u8>(next());
  f.safety.bus_error = bit();
  f.safety.wdt_timeout = bit();
  f.safety.cpu_trap = bit();
  f.safety.alarm_irq = bit();
  f.safety.halt_request = bit();
  f.irq.count = static_cast<u8>(raises);
  for (unsigned i = 0; i < raises; ++i) {
    f.irq.raised[i].priority = static_cast<u8>(next());
    f.irq.raised[i].target = static_cast<u8>(next() % 3);
  }
  return f;
}

// The constants below were computed by the frame digest as committed
// with the replays/ goldens; any change to the field list, its order or
// the folding breaks them (and every golden with them).
TEST(FrameDigest, PinnedDigestsOfHandBuiltFrames) {
  constexpr unsigned kRaises = mcds::IrqObservation::kMaxRaises;
  const std::vector<mcds::ObservationFrame> frames = {
      pinned_frame(1, 0, 0), pinned_frame(2, 1, kRaises),
      pinned_frame(3, bus::kNumMasters, 0), pinned_frame(4, 1, kRaises)};
  mcds::ObservationFrame idle;  // a quiescent frame: every strobe clear

  // Per-frame fingerprint, and the reporter's field list folds to it.
  constexpr u64 kFrameFp[] = {0xba35b6ae6b82a042ull, 0xdd4b2100be08dd1aull,
                               0xa079dba6ca9e1621ull, 0xf8acbdcf336716afull};
  for (usize i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(soc::frame_fingerprint(frames[i]), kFrameFp[i]) << i;
    u64 folded = kFnvOffset;
    for (const soc::FrameField& f : soc::enumerate_frame_fields(frames[i])) {
      folded = fnv1a(folded, f.value);
    }
    EXPECT_EQ(folded, soc::frame_fingerprint(frames[i])) << i;
  }
  EXPECT_EQ(soc::frame_fingerprint(idle), 0xa765a911b455a7a5ull);

  // Exact stream hash: cycle stamps included, one idle skip folded in.
  soc::FrameStreamHasher stream;
  stream.observe(frames[0]);
  stream.observe(frames[1]);
  idle.cycle = 77;
  stream.skip_idle(idle, 5);
  stream.observe(frames[2]);
  EXPECT_EQ(stream.frames, 8u);
  EXPECT_EQ(stream.hash, 0xd9dd75e45202ae29ull);

  // Canonical windowed digest over 4-cycle windows: a two-frame run, a
  // run split by a window boundary, and an idle skip spanning windows.
  soc::WindowedFrameDigest digest(2);
  const auto at = [](mcds::ObservationFrame f, Cycle cycle) {
    f.cycle = cycle;
    return f;
  };
  digest.observe(at(frames[0], 1));
  digest.observe(at(frames[0], 2));
  digest.observe(at(frames[1], 3));
  digest.observe(at(frames[2], 4));
  digest.observe(at(frames[2], 5));
  digest.skip_idle(at(idle, 6), 6);
  digest.observe(at(frames[3], 12));
  const auto& windows = digest.finish();
  EXPECT_EQ(digest.total_frames(), 12u);

  struct PinnedWindow {
    u64 index, frames, digest;
    std::array<u64, soc::WindowedFrameDigest::kNumComponents> components;
  };
  const PinnedWindow kWindows[] = {
      {0, 4, 0x3252178e7afb0d00ull,
       {0x2632350aa72656eeull, 0xc9f34f11beb87e95ull, 0x5dcd7ce69ef3f6a0ull,
        0x79859c8874200d5dull, 0x190eb358b0de35dcull, 0x1fbf8083443f7561ull,
        0x9c1d81eb44a53c9eull}},
      {1, 4, 0x1337c322a94610c9ull,
       {0x81d080febda5a145ull, 0x407d0ebbd5e31f87ull, 0x8867d5b2c9aeeac3ull,
        0xe5db9ad748cdc0f3ull, 0x5c736417b260bc18ull, 0x1b2ae9458eb51ce0ull,
        0x34f72b78a9f49d67ull}},
      {2, 4, 0xfdef384274b191fbull,
       {0x80c4f6de390bfc93ull, 0xe36d159e115ca3d6ull, 0xb799bd04ae7601dcull,
        0x44bef7ddfc99f2d9ull, 0x6506423328bd999dull, 0xfbb29301772b4276ull,
        0x626847c23b865b6aull}},
  };
  ASSERT_EQ(windows.size(), std::size(kWindows));
  for (usize i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].index, kWindows[i].index) << i;
    EXPECT_EQ(windows[i].frames, kWindows[i].frames) << i;
    EXPECT_EQ(windows[i].digest, kWindows[i].digest) << i;
    for (unsigned c = 0; c < soc::WindowedFrameDigest::kNumComponents; ++c) {
      EXPECT_EQ(windows[i].components[c], kWindows[i].components[c])
          << i << " " << soc::WindowedFrameDigest::component_name(c);
    }
  }
  EXPECT_EQ(digest.stream_digest(), 0x127a19496316a899ull);
}

// ---- schema round trip and rejection ----------------------------------

TEST(ReplaySchema, RoundTripPreservesEveryField) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.engine.table_dim = 16;
  scenario.engine.pcp_offload = true;
  scenario.run_cycles = 20'000;

  soc::SocConfig cfg;
  cfg.pflash.wait_states = 4;
  cfg.icache.ways = 4;
  cfg.safety.ecc_sram = false;
  replay::ReplaySpec spec = record_plain(cfg, scenario, 12);
  ASSERT_FALSE(spec.digests.windows.empty());

  spec.campaign.enabled = true;
  spec.campaign.seed = 42;
  spec.campaign.scenarios = 3;
  spec.campaign.jobs = 2;
  spec.campaign.classification_hash = 0xdeadbeefcafe;
  spec.campaign.runs.push_back({"rand-0", "masked", 123, 0xaa});
  spec.campaign.runs.push_back({"rand-1", "sdc", 456, 0xbb});

  auto loaded = replay::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const replay::ReplaySpec& got = loaded.value();

  EXPECT_EQ(got.name, spec.name);
  EXPECT_EQ(got.scenario.kind, "engine");
  EXPECT_EQ(got.scenario.run_cycles, spec.scenario.run_cycles);
  EXPECT_EQ(got.scenario.engine.table_dim, 16u);
  EXPECT_TRUE(got.scenario.engine.pcp_offload);
  EXPECT_EQ(got.config.fingerprint(), cfg.fingerprint());
  EXPECT_EQ(got.config_fingerprint, spec.config_fingerprint);
  EXPECT_EQ(got.cycles, spec.cycles);
  EXPECT_EQ(got.instructions, spec.instructions);
  EXPECT_EQ(got.digests.window_bits, 12u);
  EXPECT_EQ(got.digests.total_frames, spec.digests.total_frames);
  EXPECT_EQ(got.digests.stream, spec.digests.stream);
  ASSERT_EQ(got.digests.windows.size(), spec.digests.windows.size());
  for (usize i = 0; i < got.digests.windows.size(); ++i) {
    EXPECT_EQ(got.digests.windows[i].index, spec.digests.windows[i].index);
    EXPECT_EQ(got.digests.windows[i].frames, spec.digests.windows[i].frames);
    EXPECT_EQ(got.digests.windows[i].digest, spec.digests.windows[i].digest);
    EXPECT_EQ(got.digests.windows[i].components,
              spec.digests.windows[i].components);
  }
  EXPECT_TRUE(got.campaign.enabled);
  EXPECT_EQ(got.campaign.seed, 42u);
  EXPECT_EQ(got.campaign.classification_hash, 0xdeadbeefcafeull);
  ASSERT_EQ(got.campaign.runs.size(), 2u);
  EXPECT_EQ(got.campaign.runs[1].name, "rand-1");
  EXPECT_EQ(got.campaign.runs[1].outcome, "sdc");
  EXPECT_EQ(got.campaign.runs[1].cycles, 456u);
  EXPECT_EQ(got.campaign.runs[1].signature, 0xbbu);
}

TEST(ReplaySchema, RejectsCorruptTruncatedAndMismatchedInput) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 8'000;
  const std::string good = record_plain({}, scenario, 12).to_json();
  ASSERT_TRUE(replay::ReplaySpec::from_json(good).is_ok());

  // Not JSON at all.
  EXPECT_FALSE(replay::ReplaySpec::from_json("").is_ok());
  EXPECT_FALSE(replay::ReplaySpec::from_json("not json").is_ok());

  // Truncation anywhere is a parse error, never a half-loaded spec.
  for (usize cut : {good.size() / 4, good.size() / 2, good.size() - 3}) {
    EXPECT_FALSE(replay::ReplaySpec::from_json(good.substr(0, cut)).is_ok())
        << "truncated at " << cut;
  }

  // Trailing garbage after a valid document.
  EXPECT_FALSE(replay::ReplaySpec::from_json(good + "x").is_ok());

  // Schema version mismatch.
  std::string wrong_schema = good;
  const usize at = wrong_schema.find("trisim-replay/1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 15, "trisim-replay/9");
  EXPECT_FALSE(replay::ReplaySpec::from_json(wrong_schema).is_ok());

  // A hand-edited config knob no longer hashes back to the recorded
  // fingerprint and must be refused.
  std::string edited = good;
  usize ws = edited.find("\"wait_states\":");
  ASSERT_NE(ws, std::string::npos);
  ws += 14;
  while (edited[ws] == ' ') ++ws;
  usize digits = 0;
  while (std::isdigit(static_cast<unsigned char>(edited[ws + digits]))) {
    ++digits;
  }
  ASSERT_GT(digits, 0u);
  edited.replace(ws, digits, edited[ws] == '7' ? "8" : "7");
  auto refused = replay::ReplaySpec::from_json(edited);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.status().to_string().find("fingerprint"),
            std::string::npos);
}

TEST(ReplaySchema, FileRoundTrip) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 8'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);

  const std::string path = "replay_roundtrip_test.json";
  ASSERT_TRUE(spec.to_file(path).is_ok());
  auto loaded = replay::ReplaySpec::from_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().to_json(), spec.to_json());
  std::remove(path.c_str());

  EXPECT_FALSE(replay::ReplaySpec::from_file("no_such_golden.json").is_ok());
}

// ---- the oracle on honest reruns --------------------------------------

TEST(ReplayOracle, IdenticalRerunPassesUnderEveryHostMode) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 40'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_GE(spec.digests.windows.size(), 4u);

  struct Mode {
    const char* tier;
    int ff;
  };
  for (const Mode& m : {Mode{"", -1}, Mode{"accurate", -1},
                        Mode{"superblock", 0}, Mode{"accurate", 0}}) {
    replay::OracleOptions opts;
    opts.exec_tier = m.tier;
    opts.fast_forward = m.ff;
    auto run = replay::run_replay(spec, opts);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    EXPECT_TRUE(run.value().passed)
        << "tier=" << m.tier << " ff=" << m.ff << "\n"
        << run.value().format();
    EXPECT_EQ(run.value().windows_checked, spec.digests.windows.size());
    EXPECT_EQ(run.value().frames, spec.digests.total_frames);
  }
}

TEST(ReplayOracle, TransmissionGoldenReplays) {
  replay::ScenarioSpec scenario;
  scenario.kind = "transmission";
  scenario.transmission.halt_after_tasks = 0;
  scenario.run_cycles = 30'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_FALSE(spec.digests.windows.empty());

  replay::OracleOptions opts;
  opts.exec_tier = "accurate";
  auto run = replay::run_replay(spec, opts);
  ASSERT_TRUE(run.is_ok());
  EXPECT_TRUE(run.value().passed) << run.value().format();
}

// ---- seeded mutations are caught at the right cycle --------------------

TEST(ReplayOracle, MutationCaughtAtIndependentlyVerifiedCycle) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 30'000;
  const soc::SocConfig cfg;
  const replay::ReplaySpec spec = record_plain(cfg, scenario, 12);

  replay::OracleOptions opts;
  opts.mutations.emplace_back("flash_ws", 6);
  auto run = replay::run_replay(spec, opts);
  ASSERT_TRUE(run.is_ok());
  const replay::ReplayResult& r = run.value();
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.divergence.found);
  EXPECT_EQ(r.divergence.kind, "frame");
  EXPECT_FALSE(r.divergence.fields.empty());

  // Ground truth: two independent full-frame runs, first differing cycle.
  soc::SocConfig mutated = cfg;
  ASSERT_TRUE(replay::apply_mutation(mutated, "flash_ws", 6).is_ok());
  const u64 want =
      first_divergent_cycle(fingerprint_run(cfg, scenario),
                            fingerprint_run(mutated, scenario));
  ASSERT_NE(want, 0u);
  EXPECT_EQ(r.divergence.cycle, want);

  // The context rows straddle the divergence: matching before, not after.
  bool saw_match_before = false;
  for (const replay::ContextRow& row : r.divergence.context) {
    if (row.cycle < r.divergence.cycle) {
      saw_match_before = true;
      EXPECT_TRUE(row.match) << "cycle " << row.cycle;
    }
    if (row.cycle == r.divergence.cycle) {
      EXPECT_FALSE(row.match);
    }
  }
  EXPECT_TRUE(saw_match_before);
}

TEST(ReplayOracle, UnknownMutationKnobIsRejected) {
  soc::SocConfig cfg;
  EXPECT_FALSE(replay::apply_mutation(cfg, "bogus_knob", 1).is_ok());
  // A value that makes the config invalid is refused too.
  soc::SocConfig bad;
  EXPECT_FALSE(replay::apply_mutation(bad, "issue_width", 99).is_ok());
  soc::SocConfig good;
  EXPECT_TRUE(replay::apply_mutation(good, "flash_ws", 6).is_ok());
  EXPECT_EQ(good.pflash.wait_states, 6u);
}

// ---- bisection late in the run ----------------------------------------

struct HostMode {
  const char* tier;
  int ff;
};
constexpr HostMode kHostModes[] = {{"superblock", 1},
                                   {"accurate", 1},
                                   {"superblock", 0},
                                   {"accurate", 0}};

soc::SocConfig in_host_mode(soc::SocConfig cfg, const HostMode& m) {
  cfg.exec_tier = std::string(m.tier) == "accurate"
                      ? soc::SocConfig::ExecTier::kAccurate
                      : soc::SocConfig::ExecTier::kSuperblock;
  cfg.fast_forward = m.ff != 0;
  return cfg;
}

// The LMU is first touched by the CAN RX ISR (can_rx_period cycles in),
// so an lmu_latency mutation diverges windows into the run, after idle
// skips. Under either exec tier and with fast-forward on or off, the
// bisection must name the first cycle at which an independent run of the
// mutated config differs from one of the recorded config.
TEST(ReplayBisect, FindsLateWindowDivergenceInEveryHostMode) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = idle_lmu_engine_options();
  scenario.run_cycles = 24'000;
  const soc::SocConfig cfg;
  const replay::ReplaySpec spec = record_plain(cfg, scenario, 10);
  const u64 win = u64{1} << 10;
  soc::SocConfig mutated = cfg;
  ASSERT_TRUE(replay::apply_mutation(mutated, "lmu_latency", 12).is_ok());
  const std::vector<u64> recorded = fingerprint_run(cfg, scenario);

  for (const HostMode& m : kHostModes) {
    replay::OracleOptions opts;
    opts.exec_tier = m.tier;
    opts.fast_forward = m.ff;
    opts.mutations.emplace_back("lmu_latency", 12);
    auto run = replay::run_replay(spec, opts);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    const replay::ReplayResult& r = run.value();
    ASSERT_FALSE(r.passed) << "tier=" << m.tier << " ff=" << m.ff;
    ASSERT_TRUE(r.divergence.found);
    EXPECT_EQ(r.divergence.kind, "frame") << r.format();
    // The first CAN frame arrives can_rx_period (9000) cycles in: the
    // divergence sits windows past cycle 0.
    EXPECT_GT(r.divergence.window_index, 0u);
    EXPECT_GT(r.divergence.cycle, win);
    const u64 want = first_divergent_cycle(
        recorded, fingerprint_run(in_host_mode(mutated, m), scenario));
    ASSERT_NE(want, 0u);
    EXPECT_EQ(r.divergence.cycle, want) << "tier=" << m.tier << " ff=" << m.ff;
  }
}

// A session golden carries the MCDS instrumentation; the ED is
// non-intrusive, so its frames are those of a plain golden of the same
// scenario, and the bisection must report the same first divergence from
// either one in every host mode.
TEST(ReplayBisect, SessionGoldenBisectsLikePlainGolden) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = idle_lmu_engine_options();
  scenario.run_cycles = 24'000;
  const soc::SocConfig cfg;
  profiling::SessionOptions options;
  options.program_trace = true;
  options.irq_trace = true;
  options.dag = true;
  const replay::ReplaySpec session =
      record_session(cfg, scenario, options, 10);
  const replay::ReplaySpec plain = record_plain(cfg, scenario, 10);
  ASSERT_TRUE(session.scenario.session.enabled);
  EXPECT_EQ(session.digests.stream, plain.digests.stream);
  EXPECT_EQ(session.digests.total_frames, plain.digests.total_frames);
  EXPECT_GT(session.digests.mcds_messages, 0u);

  // As recorded, the session golden replays bit-identically, MCDS and
  // DAG digests included.
  auto honest = replay::run_replay(session);
  ASSERT_TRUE(honest.is_ok()) << honest.status().to_string();
  EXPECT_TRUE(honest.value().passed) << honest.value().format();

  for (const HostMode& m : kHostModes) {
    replay::OracleOptions opts;
    opts.exec_tier = m.tier;
    opts.fast_forward = m.ff;
    opts.mutations.emplace_back("lmu_latency", 12);
    auto s_run = replay::run_replay(session, opts);
    auto p_run = replay::run_replay(plain, opts);
    ASSERT_TRUE(s_run.is_ok()) << s_run.status().to_string();
    ASSERT_TRUE(p_run.is_ok()) << p_run.status().to_string();
    const replay::Divergence& sd = s_run.value().divergence;
    const replay::Divergence& pd = p_run.value().divergence;
    ASSERT_FALSE(s_run.value().passed) << "tier=" << m.tier << " ff=" << m.ff;
    ASSERT_EQ(sd.kind, "frame") << s_run.value().format();
    ASSERT_EQ(pd.kind, "frame") << p_run.value().format();
    EXPECT_EQ(sd.cycle, pd.cycle) << "tier=" << m.tier << " ff=" << m.ff;
    EXPECT_EQ(sd.window_index, pd.window_index);
    ASSERT_EQ(sd.fields.size(), pd.fields.size());
    ASSERT_FALSE(sd.fields.empty());
    for (usize i = 0; i < sd.fields.size(); ++i) {
      EXPECT_EQ(sd.fields[i].component, pd.fields[i].component) << i;
      EXPECT_EQ(sd.fields[i].field, pd.fields[i].field) << i;
      EXPECT_EQ(sd.fields[i].expected, pd.fields[i].expected) << i;
      EXPECT_EQ(sd.fields[i].actual, pd.fields[i].actual) << i;
    }
  }
}

// A golden whose window digest was tampered with cannot be blamed on the
// test run: the reference rerun does not reproduce it either, so the
// oracle degrades to an honest window-granularity verdict instead of
// inventing per-cycle claims.
TEST(ReplayBisect, TamperedGoldenDegradesToWindowGranularity) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 20'000;
  replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_GE(spec.digests.windows.size(), 3u);
  spec.digests.windows[2].digest ^= 1;  // single-bit golden corruption

  auto run = replay::run_replay(spec);
  ASSERT_TRUE(run.is_ok());
  const replay::ReplayResult& r = run.value();
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.divergence.found);
  EXPECT_EQ(r.divergence.kind, "window") << r.format();
  EXPECT_EQ(r.divergence.window_index, 2u);
}

// ---- divergence report JSON -------------------------------------------

TEST(ReplayReport, DivergenceJsonCarriesTheStructuredReport) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 20'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);

  replay::OracleOptions opts;
  opts.mutations.emplace_back("issue_width", 1);
  auto run = replay::run_replay(spec, opts);
  ASSERT_TRUE(run.is_ok());
  ASSERT_FALSE(run.value().passed);

  auto doc = json::json_parse(run.value().to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue& root = doc.value();
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->string, replay::kDivergenceSchema);
  EXPECT_FALSE(root.find("passed")->boolean);
  const json::JsonValue* div = root.find("divergence");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->find("kind")->string, "frame");
  EXPECT_GT(div->find("cycle")->as_u64(), 0u);
  ASSERT_NE(div->find("fields"), nullptr);
  ASSERT_FALSE(div->find("fields")->array.empty());
  const json::JsonValue& f = div->find("fields")->array[0];
  EXPECT_FALSE(f.find("component")->string.empty());
  EXPECT_FALSE(f.find("field")->string.empty());
  ASSERT_NE(div->find("context"), nullptr);
  EXPECT_FALSE(div->find("context")->array.empty());
}

}  // namespace
}  // namespace audo
