#include "span_trace.hpp"

#include <algorithm>
#include <chrono>

#include "common/json.hpp"

namespace audo::perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (usize i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<usize>(p) < spans.size()) {
      children[p].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> cover;
    for (const int c : children[i]) {
      const double lo = std::max(spans[c].start, s.start);
      const double hi = std::min(spans[c].end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[layer_of(s.name)] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

SpanTrace::Scope SpanTrace::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void SpanTrace::close(int index) {
  spans_[index].end = now_s();
  // Scopes close in LIFO order (they are stack objects).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::string SpanTrace::to_chrome_json() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  json::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("name", "thread_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 1);
  w.key("args");
  w.begin_object();
  w.kv("name", "perfbench");
  w.end_object();
  w.end_object();
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", layer_of(s.name));
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", 1e6 * (s.start - t0));
    w.kv("dur", 1e6 * (s.end - s.start));
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<u64>(i));
    w.kv("parent", s.parent);
    w.kv("op", s.op);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return std::move(w).str();
}

}  // namespace audo::perfbench
