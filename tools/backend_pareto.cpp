// Head-to-head judgement of the compensation backends through the
// camera-in-the-loop quality stack (quality/camera.h): every golden clip is
// annotated once per backend, every frame is rendered exactly as a client
// would see it (pixel transform + dimmed backlight), photographed by the
// simulated camera next to a full-backlight reference shot, and scored with
// the paper's histogram verdict (average point shift + dynamic range +
// perceived EMD).  The three Pareto axes per backend:
//
//   power saved      -- mean device watts vs the full-backlight baseline
//   quality retained -- camera-capture histogram distance to the reference
//   compute cost     -- measured client apply ns/frame + pixels shipped
//
// Emits PARETO_backends.json (bench::jsonPath: the repo root by default) and
// exits non-zero unless every non-default backend beats LinearGain on at
// least one axis -- the PR's acceptance gate, enforced where CI can see it.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compensate/backend.h"
#include "core/annotate.h"
#include "core/engine.h"
#include "core/runtime.h"
#include "display/device.h"
#include "golden_clips.h"
#include "media/histogram.h"
#include "media/image.h"
#include "power/power.h"
#include "quality/camera.h"
#include "quality/metrics.h"

namespace {

using namespace anno;
using Clock = std::chrono::steady_clock;

/// Per-(clip, backend) scores, meaned over frames x quality levels.
struct Score {
  std::string clip;
  double powerSavedPct = 0.0;    ///< vs full-backlight baseline watts
  double avgPointShift = 0.0;    ///< camera captures, code values
  double dynamicRangeChange = 0.0;
  double perceivedEmd = 0.0;     ///< camera captures, code values
  double intersection = 0.0;     ///< [0,1], 1 = identical shape
  double applyNsPerFrame = 0.0;  ///< measured client pixel-transform cost
  double kpixPerFrame = 0.0;     ///< pixels shipped to the panel
};

/// Score meaned across clips -- the row the Pareto verdict reads.
struct Aggregate {
  compensate::BackendKind kind = compensate::BackendKind::kLinearGain;
  Score mean;
  std::vector<Score> perClip;
};

constexpr std::size_t kQualityIndices[] = {1, 2, 3, 4};  // q=0 is lossless

Score scoreBackend(const media::VideoClip& clip,
                   const compensate::BackendConfig& backendCfg,
                   const display::DeviceModel& device) {
  core::AnnotatorConfig cfg;
  cfg.backend = backendCfg;
  const core::AnnotationTrack track = core::annotateClip(clip, cfg);
  const std::unique_ptr<const compensate::Backend> backend =
      core::backendForTrack(track);
  const power::MobileDevicePower power(device);

  power::OperatingPoint baselineOp;
  baselineOp.backlightLevel = 255;
  const double baselineWatts = power.totalWatts(baselineOp);

  // Noise-free camera: the report must be bit-reproducible, and sensor
  // noise at 0.8 codes RMS only blurs differences well above it anyway.
  quality::CameraConfig camCfg;
  camCfg.noiseRms = 0.0;

  Score s;
  s.clip = clip.name;
  std::size_t samples = 0;
  for (std::size_t q : kQualityIndices) {
    // One decision per scene, exactly like the runtime schedule.
    std::vector<compensate::CompensationDecision> decisions;
    decisions.reserve(track.scenes.size());
    for (std::size_t i = 0; i < track.scenes.size(); ++i) {
      decisions.push_back(
          core::decideForScene(*backend, track, i, q, device));
    }
    for (std::size_t f = 0; f < clip.frames.size(); ++f) {
      const compensate::CompensationDecision& d =
          decisions[core::sceneIndexForFrame(
              track, static_cast<std::uint32_t>(f))];
      const Clock::time_point t0 = Clock::now();
      const media::Image shown = backend->apply(clip.frames[f], d);
      s.applyNsPerFrame +=
          1e9 *
          std::chrono::duration<double>(Clock::now() - t0).count();
      s.kpixPerFrame +=
          static_cast<double>(shown.pixels().size()) / 1000.0;

      power::OperatingPoint op;
      op.cpu = (d.pixelCurve != nullptr || d.plan.gainK > 1.0)
                   ? power::CpuState::kDecodeCompensate
                   : power::CpuState::kDecode;
      op.backlightLevel = d.plan.backlightLevel;
      s.powerSavedPct +=
          100.0 * (1.0 - power.totalWatts(op) / baselineWatts);

      // Photograph reference and compensated presentations; fresh camera
      // instances keep the two shots on identical optics.
      quality::CameraModel refCam(camCfg);
      quality::CameraModel testCam(camCfg);
      const media::GrayImage ref =
          refCam.snapshot(device, clip.frames[f], 255);
      const media::GrayImage got =
          testCam.snapshot(device, shown, d.plan.backlightLevel);
      const quality::HistogramComparison c = quality::compareHistograms(
          media::Histogram::ofGray(ref), media::Histogram::ofGray(got));
      s.avgPointShift += c.averagePointShift;
      s.dynamicRangeChange += c.dynamicRangeChange;
      s.perceivedEmd += c.earthMovers;
      s.intersection += c.intersection;
      ++samples;
    }
  }
  const double n = static_cast<double>(samples);
  s.powerSavedPct /= n;
  s.avgPointShift /= n;
  s.dynamicRangeChange /= n;
  s.perceivedEmd /= n;
  s.intersection /= n;
  s.applyNsPerFrame /= n;
  s.kpixPerFrame /= n;
  return s;
}

/// Axes (named) on which `b` strictly beats `a`.
std::vector<std::string> beats(const Score& b, const Score& a) {
  std::vector<std::string> axes;
  if (b.powerSavedPct > a.powerSavedPct) axes.push_back("power_saved");
  if (b.perceivedEmd < a.perceivedEmd) axes.push_back("perceived_emd");
  if (b.applyNsPerFrame < a.applyNsPerFrame) axes.push_back("apply_ns");
  if (b.kpixPerFrame < a.kpixPerFrame) axes.push_back("pixels_shipped");
  return axes;
}

}  // namespace

int main() {
  std::printf("backend_pareto: compensation backends vs the camera\n");
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);

  std::vector<media::VideoClip> clips;
  clips.push_back(engine_golden::goldenCatwomanClip());
  clips.push_back(engine_golden::goldenMixedCreditsClip());

  std::vector<compensate::BackendConfig> configs(3);
  configs[1].kind = compensate::BackendKind::kHebs;
  configs[2].kind = compensate::BackendKind::kSpatialScaling;

  std::vector<Aggregate> rows;
  for (const compensate::BackendConfig& cfg : configs) {
    Aggregate agg;
    agg.kind = cfg.kind;
    for (const media::VideoClip& clip : clips) {
      agg.perClip.push_back(scoreBackend(clip, cfg, device));
    }
    for (const Score& s : agg.perClip) {
      agg.mean.powerSavedPct += s.powerSavedPct;
      agg.mean.avgPointShift += s.avgPointShift;
      agg.mean.dynamicRangeChange += s.dynamicRangeChange;
      agg.mean.perceivedEmd += s.perceivedEmd;
      agg.mean.intersection += s.intersection;
      agg.mean.applyNsPerFrame += s.applyNsPerFrame;
      agg.mean.kpixPerFrame += s.kpixPerFrame;
    }
    const double n = static_cast<double>(agg.perClip.size());
    agg.mean.powerSavedPct /= n;
    agg.mean.avgPointShift /= n;
    agg.mean.dynamicRangeChange /= n;
    agg.mean.perceivedEmd /= n;
    agg.mean.intersection /= n;
    agg.mean.applyNsPerFrame /= n;
    agg.mean.kpixPerFrame /= n;
    rows.push_back(std::move(agg));
  }

  std::printf(
      "\n%-14s %-14s %10s %8s %8s %8s %8s %10s %10s\n", "backend", "clip",
      "saved%", "shift", "dr", "emd", "isect", "apply_ns", "kpix");
  for (const Aggregate& agg : rows) {
    for (const Score& s : agg.perClip) {
      std::printf("%-14s %-14s %10.2f %8.2f %8.2f %8.2f %8.3f %10.0f %10.2f\n",
                  compensate::backendName(agg.kind), s.clip.c_str(),
                  s.powerSavedPct, s.avgPointShift, s.dynamicRangeChange,
                  s.perceivedEmd, s.intersection, s.applyNsPerFrame,
                  s.kpixPerFrame);
    }
    std::printf("%-14s %-14s %10.2f %8.2f %8.2f %8.2f %8.3f %10.0f %10.2f\n",
                compensate::backendName(agg.kind), "MEAN",
                agg.mean.powerSavedPct, agg.mean.avgPointShift,
                agg.mean.dynamicRangeChange, agg.mean.perceivedEmd,
                agg.mean.intersection, agg.mean.applyNsPerFrame,
                agg.mean.kpixPerFrame);
  }

  const Score& linear = rows[0].mean;
  bool accepted = true;
  std::vector<std::vector<std::string>> wins(rows.size());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    wins[i] = beats(rows[i].mean, linear);
    std::printf("\n%s vs linear_gain: beats it on",
                compensate::backendName(rows[i].kind));
    if (wins[i].empty()) {
      std::printf(" NOTHING");
      accepted = false;
    }
    for (const std::string& a : wins[i]) std::printf(" %s", a.c_str());
    std::printf("\n");
  }

  bench::JsonReport json;
  json.field("device", device.name).array("quality_indices");
  for (int q = 1; q <= 4; ++q) json.element(q);
  json.end().array("backends");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Aggregate& agg = rows[i];
    json.object()
        .field("backend", compensate::backendName(agg.kind))
        .array("clips");
    for (const Score& s : agg.perClip) {
      json.object()
          .field("clip", s.clip).field("power_saved_pct", s.powerSavedPct)
          .field("avg_point_shift", s.avgPointShift)
          .field("dynamic_range_change", s.dynamicRangeChange)
          .field("perceived_emd", s.perceivedEmd)
          .field("intersection", s.intersection)
          .field("apply_ns_per_frame", s.applyNsPerFrame)
          .field("kpix_per_frame", s.kpixPerFrame).end();
    }
    json.end().object("mean")
        .field("power_saved_pct", agg.mean.powerSavedPct)
        .field("perceived_emd", agg.mean.perceivedEmd)
        .field("apply_ns_per_frame", agg.mean.applyNsPerFrame)
        .field("kpix_per_frame", agg.mean.kpixPerFrame).end()
        .array("beats_linear_on");
    for (const std::string& axis : wins[i]) json.element(axis);
    json.end().end();
  }
  json.end().field("accepted", accepted).write("PARETO_backends.json");

  if (!accepted) {
    std::fprintf(stderr,
                 "FAIL: a backend beats linear_gain on no Pareto axis\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
