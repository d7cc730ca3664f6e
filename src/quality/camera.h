// Digital camera model for objective display validation.
//
// Paper Sec. 4.2: "We introduce an alternative, novel way of validating the
// results with a digital camera. ... The picture taken by the camera
// incorporates the actual characteristics of the handheld display, which are
// not otherwise captured by a simulation. ... A digital camera has a
// monotonic nonlinear transfer function [Debevec & Malik, SIGGRAPH'97] and
// allows us to objectively estimate the similarity between two images."
//
// The model: scene radiance (panel output) -> exposure scaling -> optical
// vignetting -> monotonic non-linear response curve -> sensor noise -> 8-bit
// quantization.  The response curve is invertible (linearize()), which the
// characterization flow uses.
#pragma once

#include <cstdint>

#include "display/characterize.h"
#include "display/device.h"
#include "media/image.h"
#include "media/rng.h"

namespace anno::quality {

/// Camera parameters.
struct CameraConfig {
  double exposure = 1.0;        ///< radiance multiplier before the response
  double responseGamma = 2.2;   ///< response(x) = x^(1/gamma), monotone
  double vignetting = 0.12;     ///< corner falloff fraction (0 = none)
  double noiseRms = 0.8;        ///< sensor noise, 8-bit code units
  std::uint64_t seed = 0xCA3;
};

/// Simulated digital camera.
class CameraModel {
 public:
  explicit CameraModel(CameraConfig cfg = {});

  /// Photographs a panel emission map (relative luminance per pixel encoded
  /// as 8-bit codes, e.g. from display::displayedLuma).  Deterministic for
  /// a fixed camera instance sequence.
  [[nodiscard]] media::GrayImage capture(const media::GrayImage& panelOutput);

  /// Photographs `frame` as shown on `device` at `backlightLevel`
  /// (convenience wrapper: render panel output, then capture).
  [[nodiscard]] media::GrayImage snapshot(const display::DeviceModel& device,
                                          const media::Image& frame,
                                          int backlightLevel,
                                          double ambientRel = 0.0);

  /// Inverts the response curve (vignetting/noise cannot be undone): maps a
  /// captured code value back to relative scene radiance in [0,1].
  [[nodiscard]] double linearize(std::uint8_t code) const;

  [[nodiscard]] const CameraConfig& config() const noexcept { return cfg_; }

 private:
  CameraConfig cfg_;
  media::SplitMix64 rng_;
};

/// Adapts the camera to the display-characterization LuminanceMeter
/// interface: photographs a solid patch and averages the linearized centre
/// region (centre crop avoids the vignetted corners).
class CameraMeter final : public display::LuminanceMeter {
 public:
  explicit CameraMeter(CameraConfig cfg = {}, int patchSize = 64);

  [[nodiscard]] double measure(const display::DeviceModel& device,
                               std::uint8_t grayValue,
                               int backlightLevel) override;

 private:
  CameraModel camera_;
  int patchSize_;
};

}  // namespace anno::quality
