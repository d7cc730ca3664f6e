#include "stream/session_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/trace.h"

namespace anno::stream {

BandwidthTrace BandwidthTrace::constant(double bitsPerSec) {
  if (bitsPerSec <= 0.0) {
    throw std::invalid_argument("BandwidthTrace: rate must be positive");
  }
  BandwidthTrace t;
  t.rates_ = {bitsPerSec};
  t.stepSeconds_ = 1.0;
  return t;
}

BandwidthTrace BandwidthTrace::periodicDip(double bitsPerSec,
                                           double dipBitsPerSec,
                                           double periodSeconds,
                                           double dipSeconds) {
  if (bitsPerSec <= 0.0 || dipBitsPerSec < 0.0 || periodSeconds <= 0.0 ||
      dipSeconds < 0.0 || dipSeconds > periodSeconds) {
    throw std::invalid_argument("BandwidthTrace::periodicDip: bad parameters");
  }
  BandwidthTrace t;
  // One period at 10 ms resolution, which at() repeats kDipPeriods times
  // (covers any clip we simulate); past that it holds the period's last
  // rate.
  t.stepSeconds_ = 0.01;
  const int stepsPerPeriod =
      std::max(1, static_cast<int>(periodSeconds / t.stepSeconds_));
  const int dipSteps = static_cast<int>(dipSeconds / t.stepSeconds_);
  t.rates_.resize(static_cast<std::size_t>(stepsPerPeriod), bitsPerSec);
  std::fill_n(t.rates_.begin(), std::min(dipSteps, stepsPerPeriod),
              dipBitsPerSec);
  t.repeats_ = kDipPeriods;
  return t;
}

BandwidthTrace BandwidthTrace::randomWalk(double meanBitsPerSec,
                                          double volatility,
                                          std::uint64_t seed,
                                          double stepSeconds,
                                          double durationSeconds) {
  if (meanBitsPerSec <= 0.0 || volatility < 0.0 || volatility >= 1.0 ||
      stepSeconds <= 0.0 || durationSeconds <= 0.0) {
    throw std::invalid_argument("BandwidthTrace::randomWalk: bad parameters");
  }
  BandwidthTrace t;
  t.stepSeconds_ = stepSeconds;
  media::SplitMix64 rng(seed);
  double rate = meanBitsPerSec;
  const auto steps =
      static_cast<std::size_t>(std::ceil(durationSeconds / stepSeconds));
  for (std::size_t i = 0; i < steps; ++i) {
    rate += meanBitsPerSec * volatility * rng.uniform(-1.0, 1.0);
    // Mean reversion + floor keeps the walk bounded and positive.
    rate = std::clamp(rate + 0.1 * (meanBitsPerSec - rate),
                      0.1 * meanBitsPerSec, 2.0 * meanBitsPerSec);
    t.rates_.push_back(rate);
  }
  return t;
}

double BandwidthTrace::at(double tSeconds) const {
  if (rates_.empty()) return 0.0;
  if (tSeconds < 0.0) return rates_.front();
  const auto idx = static_cast<std::size_t>(tSeconds / stepSeconds_);
  return idx / rates_.size() < repeats_ ? rates_[idx % rates_.size()]
                                        : rates_.back();
}

SessionSimResult simulateSession(const media::EncodedClip& clip,
                                 const Link& link,
                                 const BandwidthTrace& bandwidth,
                                 const SessionSimConfig& cfg) {
  if (clip.frames.empty() || clip.fps <= 0.0) {
    throw std::invalid_argument("simulateSession: empty or invalid clip");
  }
  if (cfg.tickSeconds <= 0.0 || cfg.startupBufferSeconds < 0.0 ||
      cfg.bufferCapacitySeconds <= cfg.startupBufferSeconds) {
    throw std::invalid_argument("simulateSession: invalid configuration");
  }
  const double frameSeconds = 1.0 / clip.fps;

  // Wire size (payload + packet headers) per frame, preamble first.
  std::vector<double> wireBytes;
  wireBytes.reserve(clip.frames.size() + 1);
  wireBytes.push_back(static_cast<double>(
      transferOverLink(link, cfg.preambleBytes).wireBytes));
  for (const media::EncodedFrame& f : clip.frames) {
    wireBytes.push_back(static_cast<double>(
        transferOverLink(link, f.sizeBytes()).wireBytes));
  }

  SessionSimResult result;

  double t = 0.0;
  double partialBytes = 0.0;       // of the frame currently in flight
  std::size_t nextDelivery = 0;    // index into wireBytes
  double bufferedSeconds = 0.0;    // content in the jitter buffer
  bool playing = false;
  double playClock = 0.0;          // consumes buffered content
  std::size_t framesPlayed = 0;
  bool stalled = false;

  // Trace state: the simulator runs in simulated time, so events are
  // stamped with the media clock (framesPlayed / fps) and carry sim time
  // as an arg; buffer depth is sampled at a coarse stride to keep the
  // event volume proportional to the session, not the tick rate.
  telemetry::TraceRecorder* const trace = cfg.trace;
  bool startupEmitted = false;
  double stallStartT = 0.0;
  const auto ticksPerSample = static_cast<std::size_t>(
      std::max(1.0, std::round(0.25 / cfg.tickSeconds)));
  std::size_t tick = 0;
  const auto mediaNow = [&] {
    return static_cast<double>(framesPlayed) * frameSeconds;
  };

  const double maxSimSeconds =
      60.0 * 60.0;  // hard stop: pathological starvation
  while (framesPlayed < clip.frames.size() && t < maxSimSeconds) {
    // ---- Delivery -----------------------------------------------------
    const bool bufferFull = bufferedSeconds >= cfg.bufferCapacitySeconds;
    if (nextDelivery < wireBytes.size() && !bufferFull) {
      partialBytes += bandwidth.at(t) / 8.0 * cfg.tickSeconds;
      while (nextDelivery < wireBytes.size() &&
             partialBytes >= wireBytes[nextDelivery]) {
        // Entry 0 is the preamble; every later entry is a frame.
        if (nextDelivery > 0) bufferedSeconds += frameSeconds;
        partialBytes -= wireBytes[nextDelivery];
        ++nextDelivery;
      }
    }

    // ---- Playback -----------------------------------------------------
    if (!playing) {
      const bool allDelivered = nextDelivery >= wireBytes.size();
      if (bufferedSeconds >= cfg.startupBufferSeconds || allDelivered) {
        playing = true;
        if (result.startupDelaySeconds == 0.0) {
          result.startupDelaySeconds = t;
        }
        if (trace != nullptr) {
          trace->setMediaTime(mediaNow());
          if (!startupEmitted) {
            startupEmitted = true;
            trace->instant("startup_complete", "session", {{"delay_s", t}});
          }
          if (stalled) {
            trace->spanEnd("rebuffer", "session",
                           {{"frame", static_cast<double>(framesPlayed)},
                            {"seconds", t - stallStartT}});
          }
        }
        if (stalled) {
          stalled = false;
        }
      } else if (stalled) {
        result.rebufferTotalSeconds += cfg.tickSeconds;
      }
    }
    if (playing) {
      playClock += cfg.tickSeconds;
      while (playClock >= frameSeconds && framesPlayed < clip.frames.size()) {
        if (bufferedSeconds >= frameSeconds - 1e-12) {
          bufferedSeconds -= frameSeconds;
          ++framesPlayed;
          playClock -= frameSeconds;
        } else {
          // Buffer underrun: stall until the startup buffer refills.
          playing = false;
          stalled = true;
          ++result.rebufferEvents;
          playClock = 0.0;
          stallStartT = t;
          if (trace != nullptr) {
            trace->setMediaTime(mediaNow());
            trace->spanBegin("rebuffer", "session",
                            {{"frame", static_cast<double>(framesPlayed)}});
          }
          break;
        }
      }
    }

    if (trace != nullptr && ++tick % ticksPerSample == 0) {
      trace->setMediaTime(mediaNow());
      trace->counter("buffer_seconds", "session", bufferedSeconds);
    }
    result.maxBufferSeconds = std::max(result.maxBufferSeconds,
                                       bufferedSeconds);
    t += cfg.tickSeconds;
  }
  if (trace != nullptr) {
    trace->setMediaTime(mediaNow());
    if (stalled) {
      // Session ended mid-stall (starvation hard stop): close the span.
      trace->spanEnd("rebuffer", "session",
                     {{"frame", static_cast<double>(framesPlayed)},
                      {"seconds", t - stallStartT}});
    }
    trace->clearMediaTime();
  }
  result.sessionSeconds = t;
  result.completed = framesPlayed == clip.frames.size();
  return result;
}

}  // namespace anno::stream
