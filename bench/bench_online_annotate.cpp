// Per-frame cost of the unified core::AnnotationEngine push path vs the
// legacy inline proxy annotator it replaced (the max-luma-only
// OnlineAnnotator that lived in src/stream/proxy.cpp before the engine
// extraction -- reproduced locally below as the baseline).  The engine is
// the hot loop of every streaming proxy, so its per-push cost is the
// regression budget this bench tracks.  Prints the usual table/CSV and
// emits BENCH_online_annotate.json.
//
// The engine's max-luma runs are verified to produce the identical scene
// partition as the legacy baseline before numbers are reported; divergence
// aborts with EXIT_FAILURE.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "media/clipgen.h"
#include "media/video.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace anno;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-refactor stream::OnlineAnnotator, verbatim in behaviour: causal
/// max-luma detection only (it silently ignored cfg.detector -- the bug the
/// unified engine fixed), inline credits capping and safe-luma planning.
class LegacyOnlineAnnotator {
 public:
  explicit LegacyOnlineAnnotator(core::AnnotatorConfig cfg,
                                 std::uint32_t maxLatencyFrames = 0)
      : cfg_(std::move(cfg)), maxLatencyFrames_(maxLatencyFrames) {}

  [[nodiscard]] std::optional<core::SceneAnnotation> push(
      const media::FrameStats& stats) {
    std::optional<core::SceneAnnotation> finished;
    const double current = stats.luminance.maxLuma;
    if (frame_ == 0) {
      reference_ = current;
    } else {
      const double base = std::max(reference_, 1.0);
      const bool bigChange = std::abs(current - reference_) / base >=
                             cfg_.sceneDetect.changeThreshold;
      const bool longEnough =
          frame_ - sceneStart_ >=
          static_cast<std::uint32_t>(cfg_.sceneDetect.minSceneFrames);
      const bool latencyForced =
          maxLatencyFrames_ != 0 && frame_ - sceneStart_ >= maxLatencyFrames_;
      if ((bigChange && longEnough) || latencyForced) {
        finished = finishScene(frame_);
        reference_ = current;
      } else {
        reference_ = std::max(reference_, current);
      }
    }
    if (cfg_.granularity == core::Granularity::kPerFrame && frame_ > 0) {
      if (!finished) finished = finishScene(frame_);
    }
    sceneHist_.accumulate(stats.histogram);
    ++frame_;
    return finished;
  }

  [[nodiscard]] std::optional<core::SceneAnnotation> flush() {
    if (frame_ == sceneStart_) return std::nullopt;
    return finishScene(frame_);
  }

 private:
  [[nodiscard]] core::SceneAnnotation finishScene(std::uint32_t endFrame) {
    core::SceneAnnotation sa;
    sa.span = core::SceneSpan{sceneStart_, endFrame - sceneStart_};
    if (cfg_.protectCredits && core::looksLikeCredits(sceneHist_)) {
      std::vector<double> capped = cfg_.qualityLevels;
      for (double& q : capped) q = std::min(q, cfg_.creditsClipCap);
      sa.safeLuma = core::safeLumaLevels(sceneHist_, capped);
    } else {
      sa.safeLuma = core::safeLumaLevels(sceneHist_, cfg_.qualityLevels);
    }
    sceneHist_ = media::Histogram{};
    sceneStart_ = endFrame;
    return sa;
  }

  core::AnnotatorConfig cfg_;
  std::uint32_t maxLatencyFrames_;
  std::uint32_t frame_ = 0;
  std::uint32_t sceneStart_ = 0;
  double reference_ = 0.0;
  media::Histogram sceneHist_;
};

struct Run {
  std::string name;
  double seconds = 0.0;
  std::size_t scenes = 0;
};

template <typename Annotator>
Run timeRun(std::string name, const std::vector<media::FrameStats>& stats,
            int reps, const auto& makeAnnotator) {
  Run run;
  run.name = std::move(name);
  run.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    Annotator annotator = makeAnnotator();
    std::size_t scenes = 0;
    const Clock::time_point start = Clock::now();
    for (const media::FrameStats& fs : stats) {
      if (auto s = annotator.push(fs)) ++scenes;
    }
    if (auto s = annotator.flush()) ++scenes;
    run.seconds = std::min(run.seconds, secondsSince(start));
    run.scenes = scenes;
  }
  return run;
}

std::vector<core::SceneSpan> partition(const std::vector<media::FrameStats>& stats,
                                       auto&& annotator) {
  std::vector<core::SceneSpan> spans;
  for (const media::FrameStats& fs : stats) {
    if (auto s = annotator.push(fs)) spans.push_back(s->span);
  }
  if (auto s = annotator.flush()) spans.push_back(s->span);
  return spans;
}

}  // namespace

int main() {
  bench::printHeader(
      "Online annotation engine: per-frame push cost vs legacy proxy path");

  // Workload: the ten synthetic paper trailers profiled once up front -- the
  // bench isolates the annotator push loop, not pixel profiling.
  const double kScale = 0.25;
  const int kWidth = 160, kHeight = 120;
  std::vector<media::FrameStats> stats;
  for (const media::PaperClip pc : media::allPaperClips()) {
    const media::VideoClip clip =
        media::generatePaperClip(pc, kScale, kWidth, kHeight);
    const std::vector<media::FrameStats> clipStats = media::profileClip(clip);
    stats.insert(stats.end(), clipStats.begin(), clipStats.end());
  }
  std::printf("workload: %zu frames of per-frame statistics (%dx%d)\n",
              stats.size(), kWidth, kHeight);

  const int kReps = 11;
  core::AnnotatorConfig cfg;  // defaults: max-luma, per-scene, no credits cap

  // Correctness gate: the engine must reproduce the legacy max-luma
  // partition exactly (bounded and unbounded) before any timing counts.
  bool identical = true;
  for (const std::uint32_t latency : {0u, 8u, 64u}) {
    identical = identical &&
                partition(stats, LegacyOnlineAnnotator(cfg, latency)) ==
                    partition(stats, core::AnnotationEngine(cfg, latency));
  }

  std::vector<Run> runs;
  runs.push_back(timeRun<LegacyOnlineAnnotator>(
      "legacy proxy (max-luma)", stats, kReps,
      [&] { return LegacyOnlineAnnotator(cfg); }));
  runs.push_back(timeRun<core::AnnotationEngine>(
      "engine (max-luma)", stats, kReps,
      [&] { return core::AnnotationEngine(cfg); }));
  runs.push_back(timeRun<core::AnnotationEngine>(
      "engine (max-luma, lat=8)", stats, kReps,
      [&] { return core::AnnotationEngine(cfg, 8); }));
  core::AnnotatorConfig emdCfg = cfg;
  emdCfg.detector = core::SceneDetector::kHistogramEmd;
  runs.push_back(timeRun<core::AnnotationEngine>(
      "engine (histogram EMD)", stats, kReps,
      [&] { return core::AnnotationEngine(emdCfg); }));
  core::AnnotatorConfig frameCfg = cfg;
  frameCfg.granularity = core::Granularity::kPerFrame;
  runs.push_back(timeRun<core::AnnotationEngine>(
      "engine (per-frame)", stats, kReps,
      [&] { return core::AnnotationEngine(frameCfg); }));

  const double frames = static_cast<double>(stats.size());
  const double legacySeconds = runs.front().seconds;
  bench::Table table(
      {"path", "ns/frame", "frames/s", "scenes", "vs legacy"});
  for (const Run& r : runs) {
    table.addRow({r.name, bench::fmt(1e9 * r.seconds / frames, 1),
                  bench::fmt(frames / r.seconds, 0), std::to_string(r.scenes),
                  bench::fmt(r.seconds / legacySeconds, 2) + "x"});
  }
  table.print();
  table.printCsv("online_annotate");
  std::printf("\nmax-luma partitions bit-identical to legacy: %s\n",
              identical ? "yes" : "NO");

  bench::JsonReport json;
  json.field("workload_frames", stats.size()).array("runs");
  for (const Run& r : runs) {
    json.object()
        .field("path", r.name).field("seconds", r.seconds)
        .field("ns_per_frame", 1e9 * r.seconds / frames)
        .field("frames_per_sec", frames / r.seconds)
        .field("scenes", r.scenes)
        .field("relative_to_legacy", r.seconds / legacySeconds).end();
  }
  json.end().field("partitions_identical", identical);
  json.write("BENCH_online_annotate.json");

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: engine diverged from the legacy online partition\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
