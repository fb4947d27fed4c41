// In-memory span trace for the benchmark's traced run.
//
// The benchmark records one span around each call it makes into a
// simulator layer's public API (name "<layer>.<call>"), with its start,
// end, parent span and the op it belongs to. Spans stay in memory and
// are written out once, at the end, as Chrome/Perfetto JSON. A layer's
// self time is its spans' durations minus the parts covered by their
// child spans. A disabled trace records nothing and its scopes are
// empty, so the untraced run pays only a branch and a name string per
// call.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace audo::perfbench {

/// Host seconds since an arbitrary fixed point (steady clock).
double now_s();

struct Span {
  std::string name;  // "<layer>.<call>"; the layer is the part before '.'
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  u64 op = 0;       // op id (0 = outside the op loop)
};

/// Layer of a span name: everything before the first '.'.
std::string layer_of(const std::string& span_name);

/// Self seconds per layer: each span's duration minus the union of its
/// direct children's intervals (clipped to the span), summed by layer.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);

class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  bool enabled() const { return enabled_; }

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanTrace* trace, int index) : trace_(trace), index_(index) {}
    ~Scope() {
      if (trace_ != nullptr) trace_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace* trace_;
    int index_;
  };

  /// Open a span; it nests under the innermost open span.
  [[nodiscard]] Scope span(std::string name);

  /// Spans opened after this belong to op `op` (0 = outside any op).
  void set_op(u64 op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events on one track, args carry the op
  /// and parent), loadable in Perfetto or chrome://tracing.
  std::string to_chrome_json() const;

 private:
  void close(int index);

  bool enabled_;
  u64 op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace audo::perfbench
