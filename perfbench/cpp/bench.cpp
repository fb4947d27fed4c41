#include "bench.hpp"

#include "soc/snapshot.hpp"

namespace audo::perfbench {

void measure_snapshot_io(LayerContext& ctx, const soc::Soc& soc,
                         const std::function<std::unique_ptr<soc::Soc>()>& fresh,
                         unsigned reps) {
  std::vector<double> save_s;
  std::vector<double> restore_s;
  soc::Snapshot image;
  for (unsigned i = 0; i < reps; ++i) {
    const double t0 = now_s();
    Result<soc::Snapshot> snap = [&] {
      auto span = ctx.trace.span("snapshot.save");
      return soc.save_snapshot();
    }();
    save_s.push_back(now_s() - t0);
    if (!snap.is_ok()) {
      ctx.check(false, "snapshot: save failed: " + snap.status().to_string());
      return;
    }
    image = std::move(snap).value();
  }
  for (unsigned i = 0; i < reps; ++i) {
    std::unique_ptr<soc::Soc> target = fresh();
    const double t0 = now_s();
    Status s = [&] {
      auto span = ctx.trace.span("snapshot.restore");
      return target->restore_snapshot(image);
    }();
    restore_s.push_back(now_s() - t0);
    if (!s.is_ok()) {
      ctx.check(false, "snapshot: restore failed: " + s.to_string());
      return;
    }
    if (i == 0) {
      Result<soc::Snapshot> again = target->save_snapshot();
      ctx.check(again.is_ok() && again.value().checksum() == image.checksum(),
                "snapshot: a restored machine saves a different image");
    }
  }
  ctx.metrics.set("snapshot.bytes", static_cast<double>(image.payload.size()));
  ctx.metrics.set("snapshot.save_s", median(save_s));
  ctx.metrics.set("snapshot.restore_s", median(restore_s));
}

}  // namespace audo::perfbench
