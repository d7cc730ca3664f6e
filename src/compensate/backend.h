// Pluggable compensation backends.
//
// The paper's scheme -- contrast enhancement C' = min(1, C*k) with the
// backlight chosen from the clip-safe luminance (Sec. 4.1) -- is one point
// in the design space.  This interface splits compensation into the three
// roles the serving pipeline actually has:
//
//   annotateScene  server-side, DEVICE-INDEPENDENT.  From the accumulated
//                  scene histogram and the per-quality safe-luma ceilings,
//                  derive whatever extra per-scene data the backend ships in
//                  the annotation track (HEBS: perceived-target tone curves;
//                  linear/spatial: nothing).
//   decide         client/proxy-side, DEVICE-SPECIFIC.  Combine the
//                  annotation with the device model into a concrete
//                  CompensationDecision: backlight level plus a pixel
//                  transform (linear gain, 256-entry tone curve, or spatial
//                  scale factor) and a predicted perceived-quality estimate
//                  for QoS planning.
//   apply          execute the decision's pixel transform on a frame.
//
// HEBS curves are stored in the PERCEIVED domain: a monotone map
// P: [0,255] -> [0,255] with P(y) <= y giving the luminance the viewer
// should perceive for content luminance y.  That keeps annotations device-
// independent (paper Sec. 3: annotations describe content, not panels); the
// client turns P into a device transform by planning the backlight for the
// curve's peak P(255) and scaling the curve by the resulting gain.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compensate/compensate.h"
#include "compensate/planner.h"
#include "display/device.h"
#include "media/histogram.h"
#include "media/image.h"

namespace anno::compensate {

/// Identity of a compensation backend.  Values are wire format (ANN1
/// backend chunk) and fingerprint inputs -- append only, never renumber.
enum class BackendKind : std::uint8_t {
  kLinearGain = 0,      ///< paper Sec. 4.1: backlight + linear gain (default)
  kHebs = 1,            ///< histogram-equalization tone curve per scene
  kSpatialScaling = 2,  ///< proxy-side resolution/power trade + linear gain
};

/// Stable short name for telemetry/trace labels and reports.
[[nodiscard]] const char* backendName(BackendKind kind) noexcept;

/// True for the enumerators above (wire-decode validation).
[[nodiscard]] bool isKnownBackendKind(std::uint8_t raw) noexcept;

/// Backend selection + knobs, carried by core::AnnotatorConfig.  Knobs only
/// affect (and are only fingerprinted for) the backend they belong to.
struct BackendConfig {
  BackendKind kind = BackendKind::kLinearGain;
  /// HEBS: blend between the hard clamp curve and the histogram-
  /// equalization curve when searching for a dimmer perceived peak.
  /// 0 = pure clamp, 1 = pure equalization.  In [0, 1].
  double hebsEqualizationWeight = 0.5;
  /// Spatial scaling: linear resolution factor applied by the proxy during
  /// transcode.  In (0, 1].
  double spatialScale = 0.75;

  friend bool operator==(const BackendConfig&, const BackendConfig&) = default;
};

/// A concrete, device-specific compensation decision for one scene.
struct CompensationDecision {
  CompensationPlan plan;  ///< backlight level, gain, ceiling
  BackendKind kind = BackendKind::kLinearGain;
  /// Pixel-domain tone curve to apply (already device-scaled, i.e. includes
  /// the plan's gain).  Null: apply the plan's linear gain instead.
  std::shared_ptr<const ToneCurve> pixelCurve;
  /// Resolution factor (< 1 only for kSpatialScaling).
  double spatialScale = 1.0;
  /// Predicted perceived-quality EMD vs the original scene histogram
  /// (0 when no scene histogram was available to the planner).
  double predictedEmd = 0.0;
};

/// Number of control points in the canonical wire encoding of a tone curve:
/// y = 8*i for i = 0..31, plus y = 255.
inline constexpr int kCurveControlPoints = 33;

/// Canonicalizes a curve to its 33 wire control points.
[[nodiscard]] std::array<std::uint8_t, kCurveControlPoints>
curveToControlPoints(const ToneCurve& curve);

/// Expands 33 control points back to a 256-entry curve by deterministic
/// linear interpolation.  curveFromControlPoints(curveToControlPoints(c))
/// is the canonical form every producer must store so encode/decode
/// round-trips bit-identically.
[[nodiscard]] ToneCurve curveFromControlPoints(
    std::span<const std::uint8_t> points);

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  [[nodiscard]] const char* name() const noexcept {
    return backendName(kind());
  }

  /// Server-side, device-independent: per-quality-level perceived-target
  /// curves for one scene (parallel to `safeLuma`).  Empty when the backend
  /// ships no curves (linear, spatial).  Returned curves are canonical
  /// (control-point round-trip stable) and satisfy P(y) <= y, monotone.
  [[nodiscard]] virtual std::vector<ToneCurve> annotateScene(
      const media::Histogram& sceneHist,
      std::span<const std::uint8_t> safeLuma) const;

  /// Client/proxy-side, device-specific.  `perceivedCurve` is this scene's
  /// curve for the chosen quality level (null when the track carries none;
  /// curve-carrying backends must then fall back to full backlight, since
  /// the client cannot know what peak the content was compensated for).
  /// `sceneHist` (optional) enables the predicted-EMD estimate.
  [[nodiscard]] virtual CompensationDecision decide(
      const display::DeviceModel& device, std::uint8_t safeLuma,
      const ToneCurve* perceivedCurve, int minBacklightLevel,
      const media::Histogram* sceneHist) const = 0;

  /// Executes the decision's pixel transform (spatial downscale first, then
  /// tone curve or linear gain).  One implementation covers every backend.
  [[nodiscard]] media::Image apply(const media::Image& frame,
                                   const CompensationDecision& decision) const;

  /// apply() to each of one scene's frames, appended to `out`.  The linear
  /// gain's channel table depends only on the decision, so it is built
  /// once for the scene rather than once per frame.
  void applyScene(std::span<const media::Image> frames,
                  const CompensationDecision& decision,
                  std::vector<media::Image>& out) const;
};

/// Factory.  Throws std::invalid_argument on out-of-range knobs.
[[nodiscard]] std::unique_ptr<const Backend> makeBackend(
    const BackendConfig& cfg);

}  // namespace anno::compensate
