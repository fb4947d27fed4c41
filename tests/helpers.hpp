// Shared helpers for integration-level tests: assemble-and-run programs
// on a freshly built SoC or Emulation Device.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string_view>

#include "ed/emulation_device.hpp"
#include "isa/assembler.hpp"
#include "soc/soc.hpp"

namespace audo::test {

inline soc::SocConfig small_config() {
  soc::SocConfig config;
  config.pflash.size = 512 * 1024;
  config.lmu_bytes = 64 * 1024;
  config.dspr_bytes = 64 * 1024;
  config.pspr_bytes = 32 * 1024;
  return config;
}

struct RunResult {
  std::unique_ptr<soc::Soc> soc;
  u64 cycles = 0;
  isa::Program program;

  u32 d(unsigned i) const { return soc->tc().d(i); }
  u32 a(unsigned i) const { return soc->tc().a(i); }
  bool halted() const { return soc->tc().halted(); }
};

/// One point of the exec tier x fast-forward grid, for tests that must
/// hold in every run mode. Prints as e.g. "superblock_ff" in test names.
struct RunMode {
  soc::SocConfig::ExecTier tier = soc::SocConfig::ExecTier::kSuperblock;
  bool fast_forward = true;

  soc::SocConfig config() const {
    soc::SocConfig c = small_config();
    c.exec_tier = tier;
    c.fast_forward = fast_forward;
    return c;
  }
};

inline void PrintTo(const RunMode& m, std::ostream* os) {
  *os << (m.tier == soc::SocConfig::ExecTier::kSuperblock ? "superblock"
                                                          : "accurate")
      << (m.fast_forward ? "_ff" : "_noff");
}

/// All four run modes, for INSTANTIATE_TEST_SUITE_P.
inline auto all_run_modes() {
  using Tier = soc::SocConfig::ExecTier;
  return ::testing::Values(RunMode{Tier::kSuperblock, true},
                           RunMode{Tier::kSuperblock, false},
                           RunMode{Tier::kAccurate, true},
                           RunMode{Tier::kAccurate, false});
}

/// Assemble `source`, load it into a SoC with `config`, run to halt (or
/// `max_cycles`). Fails the test on assembly/load errors.
inline RunResult run_program(std::string_view source,
                             const soc::SocConfig& config = small_config(),
                             u64 max_cycles = 1'000'000) {
  RunResult result;
  auto program = isa::assemble(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  if (!program.is_ok()) return result;
  result.program = std::move(program).value();
  result.soc = std::make_unique<soc::Soc>(config);
  const Status loaded = result.soc->load(result.program);
  EXPECT_TRUE(loaded.is_ok()) << loaded.to_string();
  result.soc->reset(result.program.entry());
  result.cycles = result.soc->run(max_cycles);
  return result;
}

/// Common program prologue: code in PSPR (single-cycle fetch) so tests of
/// arithmetic/hazards are not perturbed by flash timing.
inline std::string pspr_text(std::string_view body) {
  return "    .text 0xC8000000\nmain:\n" + std::string(body);
}

/// Code in cached flash.
inline std::string flash_text(std::string_view body) {
  return "    .text 0x80000000\nmain:\n" + std::string(body);
}

}  // namespace audo::test
