#include "soc/frame_digest.hpp"

#include <algorithm>

namespace audo::soc {

namespace {

// The component index order used by WindowedFrameDigest::components.
constexpr const char* kComponents[WindowedFrameDigest::kNumComponents] = {
    "tc", "pcp", "sri", "flash", "dma", "safety", "irq"};
// Indices into kComponents.
enum : unsigned { kTc, kPcp, kSri, kFlash, kDma, kSafety, kIrq };

template <class V>
inline void visit_core(unsigned c, const mcds::CoreObservation& o, V& v) {
  v(c, "present", o.present);
  v(c, "retired", o.retired);
  v(c, "retire_pc", o.retire_pc);
  v(c, "stall", static_cast<u64>(o.stall));
  v(c, "attr.symptom", static_cast<u64>(o.attr.symptom));
  v(c, "attr.root", static_cast<u64>(o.attr.root));
  v(c, "attr.blocking_master", static_cast<u64>(o.attr.blocking_master));
  v(c, "attr.blocking_slave", o.attr.blocking_slave);
  v(c, "discontinuity", o.discontinuity);
  v(c, "discontinuity_target", o.discontinuity_target);
  v(c, "irq_entry", o.irq_entry);
  v(c, "irq_prio", o.irq_prio);
  v(c, "irq_exit", o.irq_exit);
  v(c, "trap_entry", o.trap_entry);
  v(c, "trap_class", o.trap_class);
  v(c, "debug_marker", o.debug_marker);
  v(c, "data_access", o.data_access);
  v(c, "data_write", o.data_write);
  v(c, "data_addr", o.data_addr);
  v(c, "data_value", o.data_value);
  v(c, "data_bytes", o.data_bytes);
  v(c, "icache_access", o.icache_access);
  v(c, "icache_hit", o.icache_hit);
  v(c, "icache_miss", o.icache_miss);
  v(c, "dcache_access", o.dcache_access);
  v(c, "dcache_hit", o.dcache_hit);
  v(c, "dcache_miss", o.dcache_miss);
  v(c, "dspr_access", o.dspr_access);
  v(c, "flash_data_access", o.flash_data_access);
  v(c, "sram_data_access", o.sram_data_access);
  v(c, "periph_data_access", o.periph_data_access);
}

/// The digest definition: calls v(component_index, field_name, value)
/// for every architectural field of `f` except the cycle stamp, in a
/// fixed order. Fields are visited explicitly (never memcmp'd) so struct
/// padding can never fake a match or a mismatch. Every digest, the
/// stream hash and the divergence reporter walk this one list.
template <class V>
inline void visit_frame_fields(const mcds::ObservationFrame& f, V&& v) {
  visit_core(kTc, f.tc, v);
  visit_core(kPcp, f.pcp, v);
  v(kSri, "any_grant", f.sri.any_grant);
  v(kSri, "granted_master", static_cast<u64>(f.sri.granted_master));
  v(kSri, "granted_slave", f.sri.granted_slave);
  v(kSri, "granted_addr", f.sri.granted_addr);
  v(kSri, "granted_write", f.sri.granted_write);
  v(kSri, "contention", f.sri.contention);
  v(kSri, "waiting_masters", f.sri.waiting_masters);
  v(kSri, "error_response", f.sri.error_response);
  v(kSri, "error_master", static_cast<u64>(f.sri.error_master));
  v(kSri, "completed_count", f.sri.completed_count);
  for (unsigned i = 0; i < f.sri.completed_count; ++i) {
    const bus::CompletedTransaction& t = f.sri.completed[i];
    v(kSri, "completed.master", static_cast<u64>(t.master));
    v(kSri, "completed.slave", t.slave);
    v(kSri, "completed.addr", t.addr);
    v(kSri, "completed.write", t.write);
    v(kSri, "completed.fetch", t.fetch);
    v(kSri, "completed.issued_at", t.issued_at);
    v(kSri, "completed.granted_at", t.granted_at);
  }
  v(kFlash, "code_access", f.flash.code_access);
  v(kFlash, "code_buffer_hit", f.flash.code_buffer_hit);
  v(kFlash, "data_access", f.flash.data_access);
  v(kFlash, "data_buffer_hit", f.flash.data_buffer_hit);
  v(kFlash, "array_conflict", f.flash.array_conflict);
  v(kDma, "transfer", f.dma.transfer);
  v(kDma, "channel", f.dma.channel);
  v(kSafety, "ecc_corrected", f.safety.ecc_corrected);
  v(kSafety, "ecc_uncorrectable", f.safety.ecc_uncorrectable);
  v(kSafety, "bus_error", f.safety.bus_error);
  v(kSafety, "wdt_timeout", f.safety.wdt_timeout);
  v(kSafety, "cpu_trap", f.safety.cpu_trap);
  v(kSafety, "alarm_irq", f.safety.alarm_irq);
  v(kSafety, "halt_request", f.safety.halt_request);
  v(kIrq, "count", f.irq.count);
  for (unsigned i = 0; i < f.irq.count; ++i) {
    v(kIrq, "raised.priority", f.irq.raised[i].priority);
    v(kIrq, "raised.target", f.irq.raised[i].target);
  }
}

// FNV-1a fold of every field value onto `h`. The accumulator is a local
// so the compiler keeps it in a register across the whole visit.
u64 fold_fields(u64 h, const mcds::ObservationFrame& f) {
  visit_frame_fields(f,
                     [&h](unsigned, const char*, u64 v) { h = fnv1a(h, v); });
  return h;
}

}  // namespace

std::vector<FrameField> enumerate_frame_fields(
    const mcds::ObservationFrame& f) {
  std::vector<FrameField> out;
  out.reserve(96);
  visit_frame_fields(f, [&out](unsigned c, const char* field, u64 v) {
    out.push_back(FrameField{kComponents[c], field, v});
  });
  return out;
}

u64 frame_fingerprint(const mcds::ObservationFrame& f) {
  return fold_fields(kFnvOffset, f);
}

// ---- FrameStreamHasher ---------------------------------------------------

void FrameStreamHasher::observe(const mcds::ObservationFrame& frame) {
  ++frames;
  hash = fold_fields(fnv1a(hash, frame.cycle), frame);
}

void FrameStreamHasher::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  frames += n;
  hash = fold_fields(fnv1a(fnv1a(hash, n), idle.cycle), idle);
}

// ---- WindowedFrameDigest -------------------------------------------------

WindowedFrameDigest::WindowedFrameDigest(u32 window_bits)
    : window_bits_(window_bits) {}

const char* WindowedFrameDigest::component_name(unsigned i) {
  return kComponents[i];
}

void WindowedFrameDigest::flush_run() {
  if (run_len_ == 0) return;
  window_hash_ = fnv1a(window_hash_, run_fp_);
  window_hash_ = fnv1a(window_hash_, run_len_);
  for (unsigned c = 0; c < kNumComponents; ++c) {
    component_hash_[c] = fnv1a(component_hash_[c], run_component_fp_[c]);
    component_hash_[c] = fnv1a(component_hash_[c], run_len_);
  }
  run_len_ = 0;
}

void WindowedFrameDigest::flush_window() {
  flush_run();
  if (!window_open_) return;
  Window w;
  w.index = window_index_;
  w.frames = window_frames_;
  w.digest = window_hash_;
  w.components = component_hash_;
  windows_.push_back(w);
  window_open_ = false;
  window_frames_ = 0;
  window_hash_ = kFnvOffset;
  component_hash_.fill(kFnvOffset);
}

void WindowedFrameDigest::add_run(const mcds::ObservationFrame& frame, u64 n) {
  // One pass yields the frame fingerprint and all component fingerprints.
  u64 fp = kFnvOffset;
  std::array<u64, kNumComponents> component_fp;
  component_fp.fill(kFnvOffset);
  visit_frame_fields(frame, [&](unsigned c, const char*, u64 v) {
    fp = fnv1a(fp, v);
    component_fp[c] = fnv1a(component_fp[c], v);
  });

  // Frames arrive densely: this run covers [next_cycle_, next_cycle_+n).
  while (n > 0) {
    const u64 index = (next_cycle_ - 1) >> window_bits_;
    if (!window_open_) {
      window_open_ = true;
      window_index_ = index;
      window_hash_ = kFnvOffset;
      component_hash_.fill(kFnvOffset);
    } else if (index != window_index_) {
      flush_window();
      continue;
    }
    const u64 window_end = ((window_index_ + 1) << window_bits_) + 1;
    const u64 take = std::min<u64>(n, window_end - next_cycle_);
    if (run_len_ != 0 && run_fp_ != fp) flush_run();
    if (run_len_ == 0) {
      run_fp_ = fp;
      run_component_fp_ = component_fp;
    }
    run_len_ += take;
    window_frames_ += take;
    total_frames_ += take;
    next_cycle_ += take;
    n -= take;
  }
}

void WindowedFrameDigest::observe(const mcds::ObservationFrame& frame) {
  next_cycle_ = frame.cycle;  // tolerate the first frame starting past 1
  add_run(frame, 1);
}

void WindowedFrameDigest::skip_idle(const mcds::ObservationFrame& idle,
                                    u64 n) {
  add_run(idle, n);
}

const std::vector<WindowedFrameDigest::Window>& WindowedFrameDigest::finish() {
  flush_window();
  return windows_;
}

u64 WindowedFrameDigest::stream_digest() const {
  u64 h = kFnvOffset;
  for (const Window& w : windows_) {
    h = fnv1a(h, w.index);
    h = fnv1a(h, w.frames);
    h = fnv1a(h, w.digest);
  }
  return h;
}

}  // namespace audo::soc
