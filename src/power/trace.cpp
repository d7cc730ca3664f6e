#include "power/trace.h"

#include <algorithm>

namespace anno::power {

void PowerTrace::append(const PowerTrace& other) {
  if (other.dt_ != dt_) {
    throw std::invalid_argument("PowerTrace::append: sample rates differ");
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double PowerTrace::energyJoules() const noexcept {
  double sum = 0.0;
  for (double w : samples_) sum += w;
  return sum * dt_;
}

double PowerTrace::averageWatts() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double w : samples_) sum += w;
  return sum / static_cast<double>(samples_.size());
}

double PowerTrace::peakWatts() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double PowerTrace::minWatts() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

}  // namespace anno::power
