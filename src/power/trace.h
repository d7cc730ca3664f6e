// Power traces: time series of instantaneous power with energy integration.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace anno::power {

/// Uniformly sampled power trace.
class PowerTrace {
 public:
  PowerTrace() = default;
  explicit PowerTrace(double sampleIntervalSeconds)
      : dt_(sampleIntervalSeconds) {
    if (dt_ <= 0.0) {
      throw std::invalid_argument("PowerTrace: interval must be positive");
    }
  }

  void append(double watts) { samples_.push_back(watts); }
  void append(const PowerTrace& other);

  [[nodiscard]] double sampleIntervalSeconds() const noexcept { return dt_; }
  [[nodiscard]] std::size_t sampleCount() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] double durationSeconds() const noexcept {
    return dt_ * static_cast<double>(samples_.size());
  }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  /// Trapezoid-free rectangular integration (samples are averages over dt).
  [[nodiscard]] double energyJoules() const noexcept;

  [[nodiscard]] double averageWatts() const noexcept;
  [[nodiscard]] double peakWatts() const noexcept;
  [[nodiscard]] double minWatts() const noexcept;

 private:
  double dt_ = 1.0 / 20000.0;  ///< paper's DAQ: 20 kS/s
  std::vector<double> samples_;
};

}  // namespace anno::power
