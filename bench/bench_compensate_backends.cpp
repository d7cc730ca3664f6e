// Cost of the pluggable compensation backends along the three paths a
// backend touches: engine-side scene annotation (HEBS runs its
// equalization solver here), runtime decisions (per scene, per quality),
// and the client pixel transform (per frame).  Also reports the encoded
// ANN1 track size per backend -- the tone-curve chunks are the wire cost
// of shipping HEBS.  Emits BENCH_compensate_backends.json at the repo root.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compensate/backend.h"
#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/engine.h"
#include "core/runtime.h"
#include "display/device.h"
#include "media/clipgen.h"
#include "power/power.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace anno;

constexpr int kReps = 7;

template <typename F>
double timeOp(std::size_t iters, const F& fn) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    best = std::min(best, s / static_cast<double>(iters));
  }
  return best;
}

struct Row {
  const char* backend;
  double annotateNsPerFrame = 0.0;
  double decideNsPerScene = 0.0;
  double applyNsPerFrame = 0.0;
  std::size_t trackBytes = 0;
};

volatile std::uint64_t g_sink = 0;

}  // namespace

int main() {
  bench::printHeader(
      "compensation backends: annotate / decide / apply cost + wire size");

  // Engine-side workload: the paper trailer at profiling resolution.
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.12, 96, 72);
  // Client-side workload: one paper-resolution frame.
  const media::VideoClip playClip =
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.01, 320, 240);
  const media::Image& frame = playClip.frames.front();
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);

  std::vector<compensate::BackendConfig> configs(3);
  configs[1].kind = compensate::BackendKind::kHebs;
  configs[2].kind = compensate::BackendKind::kSpatialScaling;

  std::vector<Row> rows;
  for (const compensate::BackendConfig& backendCfg : configs) {
    core::AnnotatorConfig cfg;
    cfg.backend = backendCfg;
    Row row;
    row.backend = compensate::backendName(backendCfg.kind);

    row.annotateNsPerFrame =
        1e9 *
        timeOp(3,
               [&] {
                 const core::AnnotationTrack t =
                     core::annotateClip(clip, cfg);
                 g_sink = g_sink + t.scenes.size();
               }) /
        static_cast<double>(clip.frames.size());

    const core::AnnotationTrack track = core::annotateClip(clip, cfg);
    row.trackBytes = core::encodeTrack(track).size();
    const std::unique_ptr<const compensate::Backend> backend =
        core::backendForTrack(track);

    row.decideNsPerScene =
        1e9 *
        timeOp(50,
               [&] {
                 for (std::size_t s = 0; s < track.scenes.size(); ++s) {
                   const compensate::CompensationDecision d =
                       core::decideForScene(*backend, track, s, 2, device);
                   g_sink = g_sink + static_cast<std::uint64_t>(
                                         d.plan.backlightLevel);
                 }
               }) /
        static_cast<double>(track.scenes.size());

    // Apply with the darkest scene's decision so the transform actually
    // runs (a gain-1 decision degenerates to a copy for every backend).
    compensate::CompensationDecision deepest =
        core::decideForScene(*backend, track, 0, 4, device);
    for (std::size_t s = 1; s < track.scenes.size(); ++s) {
      const compensate::CompensationDecision d =
          core::decideForScene(*backend, track, s, 4, device);
      if (d.plan.backlightLevel < deepest.plan.backlightLevel) deepest = d;
    }
    row.applyNsPerFrame = 1e9 * timeOp(30, [&] {
                            const media::Image out =
                                backend->apply(frame, deepest);
                            g_sink = g_sink + out.pixels().size();
                          });

    rows.push_back(row);
  }

  bench::Table table({"backend", "annotate ns/frame", "decide ns/scene",
                      "apply ns/frame", "track bytes"});
  for (const Row& r : rows) {
    table.addRow({r.backend, bench::fmt(r.annotateNsPerFrame, 0),
                  bench::fmt(r.decideNsPerScene, 0),
                  bench::fmt(r.applyNsPerFrame, 0),
                  std::to_string(r.trackBytes)});
  }
  table.print();
  table.printCsv("compensate_backends");

  bench::JsonReport json;
  json.object("annotate_clip")
      .field("frames", clip.frames.size())
      .field("width", 96).field("height", 72).end();
  json.object("apply_frame").field("width", 320).field("height", 240).end();
  json.array("backends");
  for (const Row& r : rows) {
    json.object()
        .field("backend", r.backend)
        .field("annotate_ns_per_frame", r.annotateNsPerFrame)
        .field("decide_ns_per_scene", r.decideNsPerScene)
        .field("apply_ns_per_frame", r.applyNsPerFrame)
        .field("track_bytes", r.trackBytes).end();
  }
  json.write("BENCH_compensate_backends.json");
  return EXIT_SUCCESS;
}
