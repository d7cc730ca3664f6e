// Event-driven streaming session simulation: paced delivery over a
// time-varying wireless link into a client jitter buffer, with startup
// buffering, flow control and rebuffering stalls.
//
// The analytic NetworkPath answers "how long does this payload take"; this
// simulator answers the streaming questions the paper's system model (Fig. 1)
// implies but does not measure: does playback start promptly, does it stall
// when the wireless link dips, and does the annotation overhead cost any
// startup time (it must not -- it is hundreds of bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "media/codec.h"
#include "media/rng.h"
#include "stream/net.h"

namespace anno::telemetry {
class TraceRecorder;
}

namespace anno::stream {

/// Piecewise-constant link bandwidth over time.
class BandwidthTrace {
 public:
  /// Constant rate.
  static BandwidthTrace constant(double bitsPerSec);

  /// Periodic dips: `bitsPerSec` except for `dipSeconds` out of every
  /// `periodSeconds`, where it falls to `dipBitsPerSec` (AP contention,
  /// microwave ovens, elevators...).
  static BandwidthTrace periodicDip(double bitsPerSec, double dipBitsPerSec,
                                    double periodSeconds, double dipSeconds);

  /// Deterministic bounded random walk around `meanBitsPerSec`.
  static BandwidthTrace randomWalk(double meanBitsPerSec, double volatility,
                                   std::uint64_t seed, double stepSeconds,
                                   double durationSeconds);

  /// periodicDip repeats its period this many times; past them the link
  /// holds the period's last rate.
  static constexpr std::size_t kDipPeriods = 100;

  /// Bandwidth at time t (flat extrapolation beyond the trace).
  [[nodiscard]] double at(double tSeconds) const;

 private:
  std::vector<double> rates_;  ///< one entry per step of one repetition
  double stepSeconds_ = 1.0;
  std::size_t repeats_ = 1;    ///< repetitions of rates_ before flat
};

/// Client/session parameters.
struct SessionSimConfig {
  /// Playback starts once this much content (in seconds) is buffered.
  double startupBufferSeconds = 1.0;
  /// Delivery pauses while the buffer holds this much content.
  double bufferCapacitySeconds = 8.0;
  /// Simulation step.
  double tickSeconds = 0.001;
  /// Extra bytes delivered before frame 0 (container header + annotation
  /// track): models the annotation overhead's effect on startup.
  std::size_t preambleBytes = 0;
  /// Trace recorder (telemetry/trace.h).  Null = untraced (zero cost).
  /// When attached the simulation emits (cat "session") a
  /// `startup_complete` instant, `rebuffer` spans and periodic
  /// `buffer_seconds` counter samples, all stamped with the virtual media
  /// clock (framesPlayed / fps) -- the simulator runs in simulated time,
  /// which is exactly why trace events carry two clocks.  Not owned.
  telemetry::TraceRecorder* trace = nullptr;
};

/// Outcome of one session.
struct SessionSimResult {
  double startupDelaySeconds = 0.0;
  std::size_t rebufferEvents = 0;
  double rebufferTotalSeconds = 0.0;
  double sessionSeconds = 0.0;   ///< wall clock until the last frame played
  double maxBufferSeconds = 0.0;
  bool completed = false;

  [[nodiscard]] double stallFraction() const noexcept {
    return sessionSeconds > 0.0 ? rebufferTotalSeconds / sessionSeconds : 0.0;
  }
};

/// Simulates streaming `clip` over `link` whose nominal bandwidth is
/// replaced by `bandwidth` (the link still supplies the per-packet
/// overhead).  Deterministic.
[[nodiscard]] SessionSimResult simulateSession(const media::EncodedClip& clip,
                                               const Link& link,
                                               const BandwidthTrace& bandwidth,
                                               const SessionSimConfig& cfg = {});

}  // namespace anno::stream
