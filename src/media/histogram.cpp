#include "media/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "media/kernels/kernels.h"
#include "media/pixel.h"

namespace anno::media {

Histogram Histogram::ofImage(const Image& img) {
  kernels::FrameProfile profile;
  kernels::active().profileRgb(img.pixels().data(), img.pixelCount(), profile);
  Histogram h;
  h.counts_ = profile.hist;
  h.total_ = img.pixelCount();
  return h;
}

Histogram Histogram::ofGray(const GrayImage& img) {
  kernels::FrameProfile profile;
  kernels::active().profileGray(img.pixels().data(), img.pixelCount(),
                                profile);
  Histogram h;
  h.counts_ = profile.hist;
  h.total_ = img.pixelCount();
  return h;
}

Histogram Histogram::ofMaxChannel(const Image& img) {
  Histogram h;
  kernels::active().maxChannelHistogram(img.pixels().data(), img.pixelCount(),
                                        h.counts_.data());
  h.total_ = img.pixelCount();
  return h;
}

Histogram Histogram::fromCounts(const std::array<std::uint64_t, 256>& counts) {
  Histogram h;
  h.counts_ = counts;
  h.total_ = 0;
  for (std::uint64_t c : counts) h.total_ += c;
  return h;
}

void Histogram::accumulate(const Histogram& other) {
  kernels::active().histAccumulate(counts_.data(), other.counts_.data());
  total_ += other.total_;
}

void Histogram::add(std::uint8_t value, std::uint64_t count) {
  counts_[value] += count;
  total_ += count;
}

double Histogram::averagePoint() const noexcept {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (int v = 0; v < 256; ++v) {
    sum += static_cast<double>(v) * static_cast<double>(counts_[v]);
  }
  return sum / static_cast<double>(total_);
}

int Histogram::lowPoint(double trimFraction) const {
  if (trimFraction < 0.0 || trimFraction >= 0.5) {
    throw std::invalid_argument("Histogram: trimFraction must be in [0,0.5)");
  }
  if (total_ == 0) return 0;
  const auto budget = static_cast<std::uint64_t>(
      trimFraction * static_cast<double>(total_));
  return kernels::lowPoint(counts_.data(), budget);
}

int Histogram::highPoint(double trimFraction) const {
  if (trimFraction < 0.0 || trimFraction >= 0.5) {
    throw std::invalid_argument("Histogram: trimFraction must be in [0,0.5)");
  }
  if (total_ == 0) return 255;
  const auto budget = static_cast<std::uint64_t>(
      trimFraction * static_cast<double>(total_));
  return kernels::highPoint(counts_.data(), budget);
}

int Histogram::dynamicRange(double trimFraction) const {
  const int lo = lowPoint(trimFraction);
  const int hi = highPoint(trimFraction);
  return hi >= lo ? hi - lo : 0;
}

std::uint8_t Histogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("Histogram::quantile: q must be in [0,1]");
  }
  if (total_ == 0) return 0;
  // Ceiling, not floor: quantile(p) must cover at least ceil(p*total)
  // samples so that at most (1-p) of the mass lies strictly above it.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (int v = 0; v < 256; ++v) {
    seen += counts_[v];
    if (seen >= target && seen > 0) return static_cast<std::uint8_t>(v);
  }
  return 255;
}

double Histogram::fractionAbove(std::uint8_t value) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t above = 0;
  for (int v = value + 1; v < 256; ++v) above += counts_[v];
  return static_cast<double>(above) / static_cast<double>(total_);
}

double Histogram::intersection(const Histogram& a, const Histogram& b) {
  if (a.total_ == 0 || b.total_ == 0) return a.total_ == b.total_ ? 1.0 : 0.0;
  double sum = 0.0;
  for (int v = 0; v < 256; ++v) {
    const double pa =
        static_cast<double>(a.counts_[v]) / static_cast<double>(a.total_);
    const double pb =
        static_cast<double>(b.counts_[v]) / static_cast<double>(b.total_);
    sum += std::min(pa, pb);
  }
  return sum;
}

double Histogram::earthMovers(const Histogram& a, const Histogram& b) {
  if (a.total_ == 0 || b.total_ == 0) return 0.0;
  // EMD in 1-D equals the L1 distance between CDFs.  Clearing the two
  // normalizations from |cdfA/tA - cdfB/tB| gives an exact integer
  // numerator sum_v |cdfA(v)*tB - cdfB(v)*tA| and ONE final divide, so the
  // result carries a single rounding step, is exactly symmetric in its
  // arguments, and is bit-identical across every kernel dispatch level.
  const kernels::Uint128 num = kernels::active().emdNumerator(
      a.counts_.data(), a.total_, b.counts_.data(), b.total_);
  return static_cast<double>(num) /
         (static_cast<double>(a.total_) * static_cast<double>(b.total_));
}

std::string Histogram::asciiPlot(int rows, int cols) const {
  if (rows < 1 || cols < 1 || cols > 256) {
    throw std::invalid_argument("Histogram::asciiPlot: bad geometry");
  }
  // Re-bin 256 values into `cols` columns.
  std::vector<std::uint64_t> col(cols, 0);
  for (int v = 0; v < 256; ++v) {
    col[static_cast<std::size_t>(v) * cols / 256] += counts_[v];
  }
  const std::uint64_t peak = *std::max_element(col.begin(), col.end());
  std::string out;
  out.reserve(static_cast<std::size_t>(rows + 1) * (cols + 1));
  for (int r = rows; r >= 1; --r) {
    for (int c = 0; c < cols; ++c) {
      const double level =
          peak == 0 ? 0.0
                    : static_cast<double>(col[c]) / static_cast<double>(peak);
      out.push_back(level * rows >= r ? '#' : ' ');
    }
    out.push_back('\n');
  }
  for (int c = 0; c < cols; ++c) out.push_back('-');
  out.push_back('\n');
  return out;
}

}  // namespace anno::media
