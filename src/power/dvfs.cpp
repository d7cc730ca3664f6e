#include "power/dvfs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "media/bitstream.h"

namespace anno::power {

DvfsCpu::DvfsCpu(std::vector<CpuOpp> opps, double maxActiveWatts,
                 double idleWatts)
    : opps_(std::move(opps)),
      maxActiveWatts_(maxActiveWatts),
      idleWatts_(idleWatts) {
  if (opps_.empty()) {
    throw std::invalid_argument("DvfsCpu: need at least one OPP");
  }
  if (maxActiveWatts_ <= 0.0 || idleWatts_ < 0.0) {
    throw std::invalid_argument("DvfsCpu: invalid power numbers");
  }
  std::sort(opps_.begin(), opps_.end(),
            [](const CpuOpp& a, const CpuOpp& b) {
              return a.freqMHz < b.freqMHz;
            });
  for (const CpuOpp& o : opps_) {
    if (o.freqMHz <= 0.0 || o.volts <= 0.0) {
      throw std::invalid_argument("DvfsCpu: invalid OPP");
    }
  }
}

DvfsCpu DvfsCpu::xscalePxa255() {
  // PXA255-class frequency/voltage pairs; 0.90 W at the top point matches
  // the CpuModel::decodeWatts used by the playback power model.
  return DvfsCpu({{100.0, 0.85}, {200.0, 1.00}, {300.0, 1.10},
                  {400.0, 1.30}},
                 /*maxActiveWatts=*/0.90, /*idleWatts=*/0.15);
}

double DvfsCpu::activeWatts(std::size_t opp) const {
  if (opp >= opps_.size()) {
    throw std::out_of_range("DvfsCpu::activeWatts: bad OPP index");
  }
  const CpuOpp& top = opps_.back();
  const CpuOpp& o = opps_[opp];
  // Dynamic power ~ f * V^2 rides on top of the static floor (leakage,
  // clock tree), so active power at any OPP stays above idle.
  const double rel = (o.freqMHz * o.volts * o.volts) /
                     (top.freqMHz * top.volts * top.volts);
  return idleWatts_ + (maxActiveWatts_ - idleWatts_) * rel;
}

double DvfsCpu::secondsFor(double megacycles, std::size_t opp) const {
  if (opp >= opps_.size()) {
    throw std::out_of_range("DvfsCpu::secondsFor: bad OPP index");
  }
  if (megacycles < 0.0) {
    throw std::invalid_argument("DvfsCpu::secondsFor: negative work");
  }
  return megacycles / opps_[opp].freqMHz;
}

std::size_t DvfsCpu::lowestOppFor(double megacycles,
                                  double deadlineSeconds) const {
  for (std::size_t i = 0; i < opps_.size(); ++i) {
    if (secondsFor(megacycles, i) <= deadlineSeconds) return i;
  }
  return opps_.size() - 1;
}

ComplexityTrack ComplexityTrack::fromEncodedClip(
    const media::EncodedClip& clip, const DecodeWorkModel& model) {
  ComplexityTrack track;
  track.frameMegacycles.reserve(clip.frames.size());
  const auto pixels =
      static_cast<std::size_t>(clip.width) * static_cast<std::size_t>(clip.height);
  for (const media::EncodedFrame& f : clip.frames) {
    track.frameMegacycles.push_back(model.megacyclesFor(f.sizeBytes(), pixels));
  }
  return track;
}

std::vector<std::uint8_t> ComplexityTrack::encode() const {
  media::ByteWriter w;
  w.varint(frameMegacycles.size());
  // Delta-coded centi-megacycles: consecutive frames are similar, so the
  // deltas stay small.
  std::int64_t prev = 0;
  for (double mc : frameMegacycles) {
    const auto v = static_cast<std::int64_t>(std::llround(mc * 100.0));
    w.svarint(v - prev);
    prev = v;
  }
  return w.take();
}

ComplexityTrack ComplexityTrack::decode(std::span<const std::uint8_t> bytes) {
  media::ByteReader r(bytes);
  ComplexityTrack track;
  const std::size_t n = r.count(1);  // one svarint delta per frame
  track.frameMegacycles.reserve(n);
  std::int64_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (__builtin_add_overflow(value, r.svarint(), &value) || value < 0) {
      throw std::runtime_error("ComplexityTrack: workload out of range");
    }
    track.frameMegacycles.push_back(static_cast<double>(value) / 100.0);
  }
  return track;
}

namespace {

void checkScheduleArgs(const ComplexityTrack& track, double fps) {
  if (track.frameMegacycles.empty()) {
    throw std::invalid_argument("DVFS schedule: empty complexity track");
  }
  if (fps <= 0.0) {
    throw std::invalid_argument("DVFS schedule: fps must be positive");
  }
}

/// Accounts one frame at a chosen OPP; returns busy seconds.
double accountFrame(const DvfsCpu& cpu, double megacycles, std::size_t opp,
                    double deadline, DvfsResult& result) {
  const double busy = cpu.secondsFor(megacycles, opp);
  const double idle = std::max(0.0, deadline - busy);
  result.energyJoules += cpu.activeWatts(opp) * std::min(busy, deadline) +
                         cpu.idleWatts() * idle;
  if (busy > deadline + 1e-12) {
    ++result.missedDeadlines;
    // The overrun still costs energy (decode continues into the next
    // period); bill the remainder at the same OPP.
    result.energyJoules += cpu.activeWatts(opp) * (busy - deadline);
  }
  result.averageFreqMHz += cpu.opps()[opp].freqMHz;
  result.oppPerFrame.push_back(static_cast<std::uint8_t>(opp));
  return busy;
}

}  // namespace

DvfsResult scheduleAnnotated(const DvfsCpu& cpu, const ComplexityTrack& track,
                             double fps) {
  checkScheduleArgs(track, fps);
  const double deadline = 1.0 / fps;
  DvfsResult result;
  for (double mc : track.frameMegacycles) {
    accountFrame(cpu, mc, cpu.lowestOppFor(mc, deadline), deadline, result);
  }
  result.averageFreqMHz /= static_cast<double>(track.frameMegacycles.size());
  return result;
}

DvfsResult scheduleRaceToIdle(const DvfsCpu& cpu,
                              const ComplexityTrack& track, double fps) {
  checkScheduleArgs(track, fps);
  const double deadline = 1.0 / fps;
  DvfsResult result;
  const std::size_t top = cpu.oppCount() - 1;
  for (double mc : track.frameMegacycles) {
    accountFrame(cpu, mc, top, deadline, result);
  }
  result.averageFreqMHz /= static_cast<double>(track.frameMegacycles.size());
  return result;
}

DvfsResult scheduleReactive(const DvfsCpu& cpu, const ComplexityTrack& track,
                            double fps, double margin) {
  checkScheduleArgs(track, fps);
  if (margin < 1.0) {
    throw std::invalid_argument("scheduleReactive: margin must be >= 1");
  }
  const double deadline = 1.0 / fps;
  DvfsResult result;
  double predicted = -1.0;  // unknown: first frame at top OPP
  for (double mc : track.frameMegacycles) {
    const std::size_t opp =
        predicted < 0.0 ? cpu.oppCount() - 1
                        : cpu.lowestOppFor(predicted * margin, deadline);
    accountFrame(cpu, mc, opp, deadline, result);
    predicted = mc;
  }
  result.averageFreqMHz /= static_cast<double>(track.frameMegacycles.size());
  return result;
}

}  // namespace anno::power
