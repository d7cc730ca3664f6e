#include "compensate/backend.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace anno::compensate {
namespace {

/// Control-point abscissae: y = 8*i for i = 0..31, then y = 255.
[[nodiscard]] constexpr int controlAbscissa(int i) {
  return i < 32 ? 8 * i : 255;
}

/// Mean squared perceived error of showing `curve` instead of identity,
/// weighted by the scene histogram.
[[nodiscard]] double perceivedMse(const media::Histogram& hist,
                                  const ToneCurve& curve) {
  if (hist.total() == 0) return 0.0;
  double acc = 0.0;
  for (int y = 0; y < 256; ++y) {
    const double e = y - static_cast<double>(curve[y]);
    acc += static_cast<double>(hist.count(y)) * e * e;
  }
  return acc / static_cast<double>(hist.total());
}

/// The quality budget a clamp at `ceiling` spends: the paper's linear
/// scheme shows min(y, ceiling), so its MSE is the reference any
/// alternative curve for the same quality level must not exceed.
[[nodiscard]] double clampMse(const media::Histogram& hist,
                              std::uint8_t ceiling) {
  if (hist.total() == 0) return 0.0;
  double acc = 0.0;
  for (int y = ceiling + 1; y < 256; ++y) {
    const double e = y - ceiling;
    acc += static_cast<double>(hist.count(y)) * e * e;
  }
  return acc / static_cast<double>(hist.total());
}

/// Smallest control-point abscissa >= v (clamp curves at grid ceilings are
/// exactly representable, so the search always has a valid starting point).
[[nodiscard]] std::uint8_t ceilToGrid(std::uint8_t v) {
  if (v > 248) return 255;
  return static_cast<std::uint8_t>((v + 7) & ~7);
}

[[nodiscard]] ToneCurve canonical(const ToneCurve& c) {
  const auto pts = curveToControlPoints(c);
  return curveFromControlPoints(pts);
}

[[nodiscard]] ToneCurve clampCurve(std::uint8_t ceiling) {
  ToneCurve c;
  for (int y = 0; y < 256; ++y)
    c[y] = static_cast<std::uint8_t>(std::min<int>(y, ceiling));
  return c;
}

class LinearGainBackend final : public Backend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kLinearGain;
  }

  [[nodiscard]] CompensationDecision decide(
      const display::DeviceModel& device, std::uint8_t safeLuma,
      const ToneCurve* /*perceivedCurve*/, int minBacklightLevel,
      const media::Histogram* sceneHist) const override {
    CompensationDecision d;
    d.kind = kind();
    d.plan = planForLuma(device, safeLuma, minBacklightLevel);
    if (sceneHist != nullptr && sceneHist->total() > 0)
      d.predictedEmd = predictPerceivedEmd(*sceneHist, d.plan);
    return d;
  }
};

class HebsBackend final : public Backend {
 public:
  explicit HebsBackend(double equalizationWeight)
      : weight_(equalizationWeight) {}

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kHebs;
  }

  [[nodiscard]] std::vector<ToneCurve> annotateScene(
      const media::Histogram& sceneHist,
      std::span<const std::uint8_t> safeLuma) const override {
    std::vector<ToneCurve> out;
    out.reserve(safeLuma.size());
    for (const std::uint8_t ys : safeLuma)
      out.push_back(solveForLevel(sceneHist, ys));
    return out;
  }

  [[nodiscard]] CompensationDecision decide(
      const display::DeviceModel& device, std::uint8_t /*safeLuma*/,
      const ToneCurve* perceivedCurve, int minBacklightLevel,
      const media::Histogram* sceneHist) const override {
    CompensationDecision d;
    d.kind = kind();
    if (perceivedCurve == nullptr) {
      // No curve in the track (legacy producer, damaged chunk): the client
      // cannot know what peak the content was equalized for, so the only
      // safe display is full backlight with untouched pixels.
      return d;
    }
    const std::uint8_t peak = (*perceivedCurve)[255];
    d.plan = planForLuma(device, peak, minBacklightLevel);
    auto pixel = std::make_shared<ToneCurve>();
    for (int y = 0; y < 256; ++y) {
      const double v = (*perceivedCurve)[y] * d.plan.gainK;
      (*pixel)[y] = static_cast<std::uint8_t>(
          std::min<long>(255, std::lround(v)));
    }
    d.pixelCurve = std::move(pixel);
    if (sceneHist != nullptr && sceneHist->total() > 0) {
      media::Histogram perceived;
      for (int y = 0; y < 256; ++y) {
        if (const std::uint64_t n = sceneHist->count(y); n > 0)
          perceived.add((*perceivedCurve)[y], n);
      }
      d.predictedEmd = media::Histogram::earthMovers(*sceneHist, perceived);
    }
    return d;
  }

 private:
  /// Solves one quality level: find the DIMMEST perceived peak whose best
  /// curve (hard clamp vs equalization blend) stays within the quality
  /// budget the linear clamp at `ys` would spend.
  [[nodiscard]] ToneCurve solveForLevel(const media::Histogram& hist,
                                        std::uint8_t ys) const {
    const double budget = clampMse(hist, ys) + 1e-9;
    const std::uint8_t start = ceilToGrid(ys);
    ToneCurve best = canonical(clampCurve(start));
    if (hist.total() == 0) return best;
    for (int peak = start; peak >= 16; --peak) {
      const ToneCurve clampC =
          canonical(clampCurve(static_cast<std::uint8_t>(peak)));
      const ToneCurve blendC = canonical(
          blendedCurve(hist, static_cast<std::uint8_t>(peak)));
      const double mClamp = perceivedMse(hist, clampC);
      const double mBlend = perceivedMse(hist, blendC);
      const ToneCurve& cand = mBlend < mClamp ? blendC : clampC;
      const double m = std::min(mClamp, mBlend);
      if (m > budget) break;
      best = cand;
    }
    return best;
  }

  /// HEBS curve for a target perceived peak: identity below the knee, a
  /// histogram-equalization ramp (cumulative mass re-mapped onto the
  /// remaining output range) above it, blended with the hard clamp by the
  /// configured weight.  Monotone, P(y) <= y by construction.
  [[nodiscard]] ToneCurve blendedCurve(const media::Histogram& hist,
                                       std::uint8_t peak) const {
    const int knee = peak / 2;
    double massBelowKnee = 0.0;
    for (int y = 0; y <= knee; ++y)
      massBelowKnee += static_cast<double>(hist.count(y));
    const double massAbove =
        static_cast<double>(hist.total()) - massBelowKnee;
    ToneCurve c;
    double cum = 0.0;
    int prev = 0;
    for (int y = 0; y < 256; ++y) {
      int v;
      if (y <= knee) {
        v = y;
      } else {
        cum += static_cast<double>(hist.count(y));
        const double frac = massAbove > 0 ? cum / massAbove : 1.0;
        const int eq = knee + static_cast<int>(
                                  std::lround((peak - knee) * frac));
        const int clamp = std::min<int>(y, peak);
        v = static_cast<int>(
            std::lround(weight_ * eq + (1.0 - weight_) * clamp));
      }
      v = std::clamp(v, prev, std::min<int>(y, peak));
      c[y] = static_cast<std::uint8_t>(v);
      prev = v;
    }
    return c;
  }

  double weight_;
};

class SpatialScalingBackend final : public Backend {
 public:
  explicit SpatialScalingBackend(double scale) : scale_(scale) {}

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kSpatialScaling;
  }

  [[nodiscard]] CompensationDecision decide(
      const display::DeviceModel& device, std::uint8_t safeLuma,
      const ToneCurve* /*perceivedCurve*/, int minBacklightLevel,
      const media::Histogram* sceneHist) const override {
    CompensationDecision d;
    d.kind = kind();
    d.plan = planForLuma(device, safeLuma, minBacklightLevel);
    d.spatialScale = scale_;
    if (sceneHist != nullptr && sceneHist->total() > 0)
      d.predictedEmd = predictPerceivedEmd(*sceneHist, d.plan);
    return d;
  }

 private:
  double scale_;
};

}  // namespace

const char* backendName(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kLinearGain:
      return "linear_gain";
    case BackendKind::kHebs:
      return "hebs";
    case BackendKind::kSpatialScaling:
      return "spatial_scaling";
  }
  return "unknown";
}

bool isKnownBackendKind(std::uint8_t raw) noexcept {
  return raw <= static_cast<std::uint8_t>(BackendKind::kSpatialScaling);
}

std::array<std::uint8_t, kCurveControlPoints> curveToControlPoints(
    const ToneCurve& curve) {
  std::array<std::uint8_t, kCurveControlPoints> pts;
  for (int i = 0; i < kCurveControlPoints; ++i)
    pts[i] = curve[controlAbscissa(i)];
  return pts;
}

ToneCurve curveFromControlPoints(std::span<const std::uint8_t> points) {
  if (points.size() != kCurveControlPoints)
    throw std::invalid_argument("curveFromControlPoints: need 33 points");
  ToneCurve c;
  for (int i = 0; i + 1 < kCurveControlPoints; ++i) {
    const int x0 = controlAbscissa(i);
    const int x1 = controlAbscissa(i + 1);
    const int p0 = points[i];
    const int p1 = points[i + 1];
    for (int y = x0; y < x1; ++y) {
      // Round-half-up integer interpolation: deterministic on every host.
      const int num = p0 * (x1 - y) + p1 * (y - x0);
      c[y] = static_cast<std::uint8_t>((2 * num + (x1 - x0)) / (2 * (x1 - x0)));
    }
  }
  c[255] = points[kCurveControlPoints - 1];
  return c;
}

std::vector<ToneCurve> Backend::annotateScene(
    const media::Histogram& /*sceneHist*/,
    std::span<const std::uint8_t> /*safeLuma*/) const {
  return {};
}

namespace {

/// Backend::apply with the decision's gain table, when it has a linear
/// gain, prebuilt in `gains`.
media::Image applyDecision(const media::Image& frame,
                           const CompensationDecision& decision,
                           const ChannelTable& gains) {
  const media::Image* src = &frame;
  media::Image scaled;
  if (decision.spatialScale < 1.0) {
    const int w = std::max<int>(
        1, static_cast<int>(std::lround(frame.width() * decision.spatialScale)));
    const int h = std::max<int>(
        1,
        static_cast<int>(std::lround(frame.height() * decision.spatialScale)));
    scaled = media::resizeBilinear(frame, w, h);
    src = &scaled;
  }
  if (decision.pixelCurve != nullptr)
    return applyToneCurve(*src, *decision.pixelCurve);
  if (decision.plan.gainK > 1.0) return contrastEnhance(*src, gains);
  return *src;
}

/// The channel table applyDecision reads: gainTable(k) when the decision
/// applies a linear gain k, else unused.
ChannelTable gainsOf(const CompensationDecision& decision) {
  return decision.pixelCurve == nullptr && decision.plan.gainK > 1.0
             ? gainTable(decision.plan.gainK)
             : ChannelTable{};
}

}  // namespace

bool appliesPerChannel(const CompensationDecision& decision) noexcept {
  return !(decision.spatialScale < 1.0) && decision.pixelCurve == nullptr;
}

media::Image Backend::apply(const media::Image& frame,
                            const CompensationDecision& decision) const {
  return applyDecision(frame, decision, gainsOf(decision));
}

void Backend::applyScene(std::span<const media::Image> frames,
                         const CompensationDecision& decision,
                         std::vector<media::Image>& out) const {
  const ChannelTable gains = gainsOf(decision);
  for (const media::Image& frame : frames) {
    out.push_back(applyDecision(frame, decision, gains));
  }
}

std::unique_ptr<const Backend> makeBackend(const BackendConfig& cfg) {
  switch (cfg.kind) {
    case BackendKind::kLinearGain:
      return std::make_unique<LinearGainBackend>();
    case BackendKind::kHebs:
      if (!(cfg.hebsEqualizationWeight >= 0.0 &&
            cfg.hebsEqualizationWeight <= 1.0))
        throw std::invalid_argument(
            "BackendConfig: hebsEqualizationWeight must be in [0, 1]");
      return std::make_unique<HebsBackend>(cfg.hebsEqualizationWeight);
    case BackendKind::kSpatialScaling:
      if (!(cfg.spatialScale > 0.0 && cfg.spatialScale <= 1.0))
        throw std::invalid_argument(
            "BackendConfig: spatialScale must be in (0, 1]");
      return std::make_unique<SpatialScalingBackend>(cfg.spatialScale);
  }
  throw std::invalid_argument("BackendConfig: unknown backend kind");
}

}  // namespace anno::compensate
