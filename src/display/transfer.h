// Backlight-level -> luminance transfer functions.
//
// Paper Sec. 5: "the measured luminance was almost linear with the luminance
// of the image (Figure 7), but not linear with the backlight level
// (Figure 8). Each display technology showed a different transfer
// characteristic. The luminance-backlight transfer function allows us to
// compute the backlight level needed to achieve a desired luminance level
// during playback and is essential in order to minimize the degradation
// introduced by the compensation scheme."
//
// We model the transfer as a 256-entry monotone non-decreasing LUT of
// relative luminance (T(255) == 1), with an exact inverse lookup.  The LUT
// is immutable and shared: copies of a transfer function point at one
// table, so copying is cheap and `sharesLut` can tell two copies apart from
// two equal tables without reading either.  Builders
// provide the characteristic shapes of the paper's three device classes and
// a fit-from-samples path used by the camera characterization flow.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

namespace anno::display {

/// Monotone backlight->relative-luminance map with inverse.
class TransferFunction {
 public:
  /// Identity default: linear with level (entry i is i / 255.0).  Every
  /// default-constructed transfer shares one process-wide table.
  TransferFunction();

  // Copies share the table.  No move operations are declared, so a
  // moved-from transfer still holds its table (moves copy the pointer).
  TransferFunction(const TransferFunction&) = default;
  TransferFunction& operator=(const TransferFunction&) = default;

  /// Builds from an explicit LUT.  Values are clamped to [0,1]; the table is
  /// made monotone non-decreasing (running max) and normalized so the top
  /// entry is exactly 1.  Throws std::invalid_argument if the top value
  /// would be zero.
  static TransferFunction fromLut(std::span<const double> lut256);

  /// Perfectly linear transfer (idealized panel).
  static TransferFunction linear();

  /// Power-law transfer T(x) = x^gamma (gamma < 1: concave, typical of the
  /// LED-backlit iPAQ 5555 whose luminance rises quickly at low levels;
  /// gamma > 1: convex).
  static TransferFunction gamma(double g);

  /// CCFL-style transfer: no light output below a turn-on threshold (the
  /// lamp inverter will not strike), then a slightly convex rise.
  static TransferFunction ccfl(double threshold = 0.12, double g = 1.15);

  /// Least-squares-free monotone fit from (level, measuredLuminance) sample
  /// pairs (camera characterization): samples are sorted, linearly
  /// interpolated onto the 256-entry grid, then normalized.  At least two
  /// distinct levels are required.
  static TransferFunction fitFromSamples(
      std::span<const std::pair<int, double>> samples);

  /// Relative luminance in [0,1] at a backlight level in [0,255].
  [[nodiscard]] double relLuminance(int level) const;

  /// Smallest backlight level whose relative luminance is >= target
  /// (target clamped to [0,1]).  This is the table lookup the client
  /// performs at runtime ("a simple multiplication, followed by a table
  /// look-up", Sec. 4.3).
  [[nodiscard]] std::uint8_t minimumLevelFor(double targetRelLuminance) const;

  [[nodiscard]] const std::array<double, 256>& lut() const noexcept {
    return *lut_;
  }

  /// True when both hold the same table object (one was copied from the
  /// other, or both are default-constructed).  False says nothing about the
  /// values: two separately built tables may still be equal.
  [[nodiscard]] bool sharesLut(const TransferFunction& other) const noexcept {
    return lut_ == other.lut_;
  }

 private:
  using Lut = std::array<double, 256>;
  explicit TransferFunction(const Lut& lut);

  std::shared_ptr<const Lut> lut_;  ///< never null
};

}  // namespace anno::display
