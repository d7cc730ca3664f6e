#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "media/kernels/kernels.h"
#include "telemetry/trace.h"

namespace anno::core {

const char* cutReasonName(CutReason reason) noexcept {
  switch (reason) {
    case CutReason::kLumaChange: return "luma";
    case CutReason::kHistogramEmd: return "emd";
    case CutReason::kLatencyForced: return "latency";
    case CutReason::kPerFrame: return "per_frame";
    case CutReason::kEndOfStream: return "end_of_stream";
  }
  return "unknown";
}

namespace {

/// FNV-1a 64-bit over a canonical little-endian byte feed.  The feed is a
/// pure function of the field VALUES (doubles contribute their IEEE-754 bit
/// patterns), so the fingerprint is reproducible across processes and runs.
class Fnv1a {
 public:
  void u8(std::uint8_t v) noexcept {
    h_ = (h_ ^ v) * 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// Bump when the set of hashed fields or their encoding changes, so stale
/// fingerprints from an older layout can never alias a newer plan.
/// v2: compensation backend (kind + its active knobs) joined the feed.
constexpr std::uint8_t kFingerprintVersion = 2;

}  // namespace

std::uint64_t AnnotatorConfig::fingerprint() const noexcept {
  Fnv1a h;
  h.u8(kFingerprintVersion);
  h.u8(static_cast<std::uint8_t>(detector));
  h.u8(static_cast<std::uint8_t>(granularity));
  // Only the ACTIVE detector's knobs steer scene cuts; hashing the dormant
  // one would needlessly split tenants that plan identically.
  switch (detector) {
    case SceneDetector::kMaxLuma:
      h.f64(sceneDetect.changeThreshold);
      h.i64(sceneDetect.minSceneFrames);
      break;
    case SceneDetector::kHistogramEmd:
      h.f64(histogramDetect.emdThreshold);
      h.i64(histogramDetect.minSceneFrames);
      break;
  }
  h.u64(qualityLevels.size());
  for (double q : qualityLevels) h.f64(q);
  h.u8(protectCredits ? 1 : 0);
  // creditsClipCap only caps budgets when protection is on.
  if (protectCredits) h.f64(creditsClipCap);
  // The backend kind always contributes -- distinct backends must never
  // alias in TrackCache -- but each knob only steers output under its own
  // backend, so (like the detectors above) dormant knobs are excluded.
  h.u8(static_cast<std::uint8_t>(backend.kind));
  switch (backend.kind) {
    case compensate::BackendKind::kLinearGain:
      break;
    case compensate::BackendKind::kHebs:
      h.f64(backend.hebsEqualizationWeight);
      break;
    case compensate::BackendKind::kSpatialScaling:
      h.f64(backend.spatialScale);
      break;
  }
  return h.value();
}

std::vector<std::uint8_t> safeLumaLevels(
    const media::Histogram& sceneHistogram,
    const std::vector<double>& qualityLevels) {
  if (sceneHistogram.total() == 0) {
    throw std::invalid_argument("safeLumaLevels: empty histogram");
  }
  std::vector<std::uint8_t> safeLevels;
  safeLevels.reserve(qualityLevels.size());
  std::uint8_t prev = 255;
  for (double q : qualityLevels) {
    if (q < 0.0 || q >= 1.0) {
      throw std::invalid_argument("safeLumaLevels: quality level in [0,1)");
    }
    const auto budget = static_cast<std::uint64_t>(
        q * static_cast<double>(sceneHistogram.total()));
    auto safe = static_cast<std::uint8_t>(media::kernels::tailBudgetLevel(
        sceneHistogram.counts().data(), budget));
    safe = std::min(safe, prev);
    prev = safe;
    safeLevels.push_back(safe);
  }
  return safeLevels;
}

bool looksLikeCredits(const media::Histogram& sceneHistogram) {
  if (sceneHistogram.total() == 0) return false;
  // Bright "text" population: sparse but present.
  const double bright = sceneHistogram.fractionAbove(180);
  if (bright < 0.002 || bright > 0.20) return false;
  // Background: dark and uniform.  The darkest 70% of the mass must sit
  // below code 70 and span a narrow band.
  const std::uint8_t p70 = sceneHistogram.quantile(0.70);
  if (p70 > 70) return false;
  const int band = sceneHistogram.quantile(0.70) -
                   sceneHistogram.quantile(0.05);
  return band <= 25;
}

AnnotationEngine::AnnotationEngine(AnnotatorConfig cfg,
                                   std::uint32_t maxLatencyFrames)
    : cfg_(std::move(cfg)), maxLatencyFrames_(maxLatencyFrames) {
  if (cfg_.qualityLevels.empty()) {
    throw std::invalid_argument("AnnotationEngine: no quality levels");
  }
  // Builds the compensation backend up front: validates its knobs at
  // construction (matching the detector checks below) and gives finishScene
  // a ready planner for curve-carrying backends.
  backend_ = compensate::makeBackend(cfg_.backend);
  // Per-frame granularity never consults a detector, so its config is not
  // validated (matching the offline pass, which built 1-frame spans without
  // ever touching the detector).
  if (cfg_.granularity == Granularity::kPerFrame) return;
  int minSceneFrames = 0;
  if (cfg_.detector == SceneDetector::kHistogramEmd) {
    if (cfg_.histogramDetect.emdThreshold <= 0.0) {
      throw std::invalid_argument(
          "AnnotationEngine: emdThreshold must be positive");
    }
    minSceneFrames = cfg_.histogramDetect.minSceneFrames;
  } else {
    if (cfg_.sceneDetect.changeThreshold <= 0.0 ||
        cfg_.sceneDetect.changeThreshold >= 1.0) {
      throw std::invalid_argument(
          "AnnotationEngine: changeThreshold in (0,1)");
    }
    minSceneFrames = cfg_.sceneDetect.minSceneFrames;
  }
  if (minSceneFrames < 1) {
    throw std::invalid_argument("AnnotationEngine: minSceneFrames >= 1");
  }
  if (maxLatencyFrames_ != 0 &&
      maxLatencyFrames_ < static_cast<std::uint32_t>(minSceneFrames)) {
    throw std::invalid_argument(
        "AnnotationEngine: latency bound below minimum scene length");
  }
}

SceneAnnotation AnnotationEngine::finishScene(std::uint32_t endFrame,
                                              CutReason reason) {
  // The observer path reads the clock around planning; the unobserved path
  // must stay exactly as cheap as before the hook existed, so all metrics
  // work is gated on the null check.  Plan timing is further sampled at
  // kPlanTimingSampleStride (engine-local, hence deterministic): two clock
  // reads on every close would eat most of the attached-observer budget.
  EngineObserver* const observer = cfg_.observer;
  const std::uint64_t mass = observer != nullptr ? sceneHist_.total() : 0;
  const bool samplePlan =
      observer != nullptr && closedScenes_ % kPlanTimingSampleStride == 0;
  const std::chrono::steady_clock::time_point planStart =
      samplePlan ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};

  SceneAnnotation sa;
  sa.span = SceneSpan{sceneStart_, endFrame - sceneStart_};
  const bool creditsCapped =
      cfg_.protectCredits && looksLikeCredits(sceneHist_);
  if (creditsCapped) {
    // Cap the budget: text strokes must not be clipped away.
    std::vector<double> capped = cfg_.qualityLevels;
    for (double& q : capped) q = std::min(q, cfg_.creditsClipCap);
    sa.safeLuma = safeLumaLevels(sceneHist_, capped);
  } else {
    sa.safeLuma = safeLumaLevels(sceneHist_, cfg_.qualityLevels);
  }
  // Curve-carrying backends (HEBS) derive their device-independent
  // perceived-target curves from the same scene histogram and (possibly
  // credits-capped) ceilings; the default backend returns nothing and this
  // is free.
  sa.perceivedCurves = backend_->annotateScene(sceneHist_, sa.safeLuma);

  if (observer != nullptr) {
    SceneCloseEvent event;
    event.reason = reason;
    event.firstFrame = sceneStart_;
    event.frameCount = endFrame - sceneStart_;
    event.histogramMass = mass;
    if (samplePlan) {
      event.planSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - planStart)
                              .count();
    }
    event.creditsCapped = creditsCapped;
    observer->onSceneClosed(event);
  }
  if (telemetry::TraceRecorder* const trace = cfg_.trace; trace != nullptr) {
    // Close this scene's span with the facts the paper's timeline plots
    // need (cut reason, planned ceiling at the most aggressive quality
    // level), then open the next scene's span -- the engine always holds
    // one open scene except after end-of-stream.
    trace->spanEnd(
        "scene", "engine",
        {{"first_frame", static_cast<double>(sceneStart_)},
         {"frames", static_cast<double>(endFrame - sceneStart_)},
         {"safe_luma", static_cast<double>(sa.safeLuma.back())}},
        "reason", cutReasonName(reason));
    if (reason != CutReason::kEndOfStream) {
      trace->spanBegin("scene", "engine",
                       {{"first_frame", static_cast<double>(endFrame)}});
    }
  }
  ++closedScenes_;

  sceneHist_ = media::Histogram{};
  sceneStart_ = endFrame;
  return sa;
}

std::optional<SceneAnnotation> AnnotationEngine::push(
    const media::FrameStats& stats) {
  std::optional<SceneAnnotation> finished;
  if (frame_ == 0 && cfg_.trace != nullptr) {
    // The very first frame opens the first scene; later scenes are opened
    // by finishScene as their predecessor closes.
    cfg_.trace->spanBegin("scene", "engine", {{"first_frame", 0.0}});
  }
  if (cfg_.granularity == Granularity::kPerFrame) {
    // Per-frame mode: every frame closes the previous one-frame scene
    // (no detector consulted; may flicker -- the paper's caveat).
    if (frame_ > 0) finished = finishScene(frame_, CutReason::kPerFrame);
  } else if (frame_ == 0) {
    reference_ = stats.luminance.maxLuma;
  } else {
    bool cut = false;
    // A detector-driven cut is attributed to the detector even when the
    // latency bound fired on the same frame; kLatencyForced counts only the
    // cuts the latency policy alone paid for.
    CutReason reason = CutReason::kLatencyForced;
    // Live mode: force a cut once the latency bound is reached, even mid-
    // scene (the two chunks annotate to near-identical levels and merge in
    // the client's schedule).  Applies uniformly to both detectors.
    const bool latencyForced =
        maxLatencyFrames_ != 0 && frame_ - sceneStart_ >= maxLatencyFrames_;
    if (cfg_.detector == SceneDetector::kHistogramEmd) {
      const double emd =
          media::Histogram::earthMovers(prevHist_, stats.histogram);
      const bool longEnough =
          frame_ - sceneStart_ >=
          static_cast<std::uint32_t>(cfg_.histogramDetect.minSceneFrames);
      const bool detected =
          emd >= cfg_.histogramDetect.emdThreshold && longEnough;
      if (detected) reason = CutReason::kHistogramEmd;
      cut = detected || latencyForced;
    } else {
      const double current = stats.luminance.maxLuma;
      const double base = std::max(reference_, 1.0);
      const bool bigChange = std::abs(current - reference_) / base >=
                             cfg_.sceneDetect.changeThreshold;
      const bool longEnough =
          frame_ - sceneStart_ >=
          static_cast<std::uint32_t>(cfg_.sceneDetect.minSceneFrames);
      const bool detected = bigChange && longEnough;
      if (detected) reason = CutReason::kLumaChange;
      cut = detected || latencyForced;
      if (cut) {
        reference_ = current;
      } else {
        // Track the scene's running max so a slow ramp within a scene
        // cannot leave annotated levels below actual content.
        reference_ = std::max(reference_, current);
      }
    }
    if (cut) finished = finishScene(frame_, reason);
  }
  sceneHist_.accumulate(stats.histogram);
  if (cfg_.detector == SceneDetector::kHistogramEmd &&
      cfg_.granularity != Granularity::kPerFrame) {
    prevHist_ = stats.histogram;
  }
  ++frame_;
  return finished;
}

std::optional<SceneAnnotation> AnnotationEngine::flush() {
  if (frame_ == sceneStart_) return std::nullopt;
  return finishScene(frame_, CutReason::kEndOfStream);
}

void AnnotationEngine::reset() {
  frame_ = 0;
  sceneStart_ = 0;
  closedScenes_ = 0;
  reference_ = 0.0;
  prevHist_ = media::Histogram{};
  sceneHist_ = media::Histogram{};
}

AnnotationTrack annotateStats(const std::string& clipName, double fps,
                              std::span<const media::FrameStats> stats,
                              const AnnotatorConfig& cfg,
                              std::uint32_t maxLatencyFrames,
                              const SceneCallback& onScene) {
  if (stats.empty()) {
    throw std::invalid_argument("annotate: no frame statistics");
  }
  AnnotationTrack track;
  track.clipName = clipName;
  track.fps = fps;
  track.frameCount = static_cast<std::uint32_t>(stats.size());
  track.granularity = cfg.granularity;
  track.qualityLevels = cfg.qualityLevels;
  track.backendKind = cfg.backend.kind;
  track.spatialScale =
      cfg.backend.kind == compensate::BackendKind::kSpatialScaling
          ? cfg.backend.spatialScale
          : 1.0;

  AnnotationEngine engine(cfg, maxLatencyFrames);
  const auto emit = [&](SceneAnnotation scene, std::uint32_t closedAt) {
    if (onScene) onScene(scene, closedAt);
    track.scenes.push_back(std::move(scene));
  };
  const double frameSeconds = fps > 0.0 ? 1.0 / fps : 0.0;
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    // Advance the virtual media clock so every engine event carries the
    // content timestamp alongside wall time (two-clock stamping).
    telemetry::traceSetMediaTime(cfg.trace, static_cast<double>(i) *
                                                frameSeconds);
    if (auto scene = engine.push(stats[i])) emit(std::move(*scene), i);
  }
  telemetry::traceSetMediaTime(
      cfg.trace, static_cast<double>(stats.size()) * frameSeconds);
  if (auto scene = engine.flush()) {
    emit(std::move(*scene), static_cast<std::uint32_t>(stats.size()));
  }
  telemetry::traceClearMediaTime(cfg.trace);
  validateTrack(track);
  return track;
}

}  // namespace anno::core
