// 256-bin luminance histograms and the histogram-derived metrics the paper
// uses to validate quality (Sec. 4.2, Fig. 3): the *average point* and the
// *dynamic range*, plus distance measures between histograms.
//
// The paper explicitly chose histograms over pixel-level differences:
// "We estimate the difference between the LCD snapshots by computing their
//  histograms. The histogram was chosen as a metric because it represents
//  both the average luminance and dynamic range for an image."
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "media/image.h"

namespace anno::media {

/// Immutable-after-build 256-bin histogram over 8-bit luminance codes.
class Histogram {
 public:
  Histogram() = default;

  /// Histogram of the luma plane of an RGB image.
  static Histogram ofImage(const Image& img);

  /// Histogram of an 8-bit plane (camera snapshots, luma planes).
  static Histogram ofGray(const GrayImage& img);

  /// Histogram of max(r,g,b) per pixel.  A pixel clips under the
  /// compensation transform iff its max channel reaches the scalar clip
  /// threshold, so this histogram answers clipped-fraction queries for ANY
  /// scale factor in O(256) (see compensate::clippedFraction).
  static Histogram ofMaxChannel(const Image& img);

  /// Builds from raw bin counts (e.g. accumulated across frames).
  static Histogram fromCounts(const std::array<std::uint64_t, 256>& counts);

  /// Adds another histogram bin-wise (accumulate scene statistics).
  void accumulate(const Histogram& other);

  /// Adds a single sample.
  void add(std::uint8_t value, std::uint64_t count = 1);

  [[nodiscard]] std::uint64_t count(int bin) const { return counts_.at(bin); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::array<std::uint64_t, 256>& counts() const noexcept {
    return counts_;
  }

  /// Fig. 3 "Average Point": mean of the distribution.
  [[nodiscard]] double averagePoint() const noexcept;

  /// Fig. 3 "Dynamic Range": distance between the lowest and highest
  /// occupied bins, optionally trimming a fraction of outlier mass at each
  /// tail (trim=0 gives the raw min..max span).
  [[nodiscard]] int dynamicRange(double trimFraction = 0.0) const;

  /// Lowest / highest occupied bin after trimming `trimFraction` of the
  /// total mass from the respective tail.  Returns 0 / 255 on empty.
  [[nodiscard]] int lowPoint(double trimFraction = 0.0) const;
  [[nodiscard]] int highPoint(double trimFraction = 0.0) const;

  /// Value at a cumulative quantile q in [0,1].
  [[nodiscard]] std::uint8_t quantile(double q) const;

  /// Fraction of mass in bins strictly above `value`.
  [[nodiscard]] double fractionAbove(std::uint8_t value) const noexcept;

  /// Normalized histogram intersection in [0,1]; 1 means identical shapes.
  [[nodiscard]] static double intersection(const Histogram& a,
                                           const Histogram& b);

  /// 1-D earth mover's distance on normalized bins, in code-value units.
  /// This is the primary "how far did the picture move" metric in our
  /// camera-based validation, since it is sensitive to both the average
  /// point shift and the dynamic-range change of Fig. 3.
  [[nodiscard]] static double earthMovers(const Histogram& a,
                                          const Histogram& b);

  /// Multi-line ASCII rendering (for examples / debugging), `rows` tall.
  [[nodiscard]] std::string asciiPlot(int rows = 12, int cols = 64) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::uint64_t, 256> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace anno::media
