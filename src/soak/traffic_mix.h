// Deterministic, seedable traffic-mix generation for the fleet soak.
//
// The ROADMAP's north star is the paper's watts-saved claim held at fleet
// scale, and a fleet is not one workload: it is device classes x content
// profiles x link conditions x tenant configs arriving on a diurnal curve.
// This module composes those axes into an explicit, replayable arrival
// schedule -- a vector of SessionPlan, one per session, each pinned to a
// scheduler tick -- in the spirit of EVSO's environment-driven workload
// diversity (PAPERS.md) and McPAT-style capacity modeling (SNIPPETS.md
// snippet 1): before anything runs, the mix itself is a queryable object
// (how many sessions per cell, how many unique (clip, tenant) keys), which
// is exactly what the CapacityModel predicts against.
//
// Everything is SplitMix64 arithmetic: the same TrafficMixConfig produces
// the same schedule on every platform, so a soak run is exactly
// reproducible and FLEET_SOAK.json can be diffed across machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "display/device.h"
#include "media/clipgen.h"

namespace anno::soak {

/// One class of client hardware + access link.  The display device drives
/// the watts-saved roll-up (backlight electrical power is device-specific);
/// the link parameters drive startup/rebuffer behaviour.
struct DeviceClass {
  std::string name;
  display::KnownDevice device = display::KnownDevice::kIpaq5555;
  std::size_t qualityIndex = 1;
  int minBacklightLevel = 10;
  double meanBitsPerSec = 6e6;
  /// Per-session link-rate spread: each session draws a multiplier in
  /// [1 - jitter, 1 + jitter] around meanBitsPerSec.
  double bandwidthJitter = 0.25;
  /// When true, the link periodically dips to dipFraction of its rate
  /// (commute through elevators and microwave ovens): provokes rebuffering
  /// so the p99 columns of the fleet report measure something real.
  bool periodicDips = false;
  double dipFraction = 0.15;
  double dipPeriodSeconds = 2.0;
  double dipSeconds = 0.5;
  double startupBufferSeconds = 0.3;
  double bufferCapacitySeconds = 4.0;
  double weight = 1.0;  ///< relative share of arrivals
};

/// One catalog entry recipe (which paper clip, how long, what resolution).
struct ContentProfile {
  std::string name;
  media::PaperClip source = media::PaperClip::kTheMovie;
  double durationScale = 0.01;
  int width = 32;
  int height = 24;
  double weight = 1.0;  ///< relative share of arrivals
};

/// Diurnal arrival-rate shape: a raised cosine over the 24h day.  The rate
/// at hour h is trough + (peak - trough) * (1 + cos(2*pi*(h - peakHour)/24))/2,
/// normalized so the schedule lands exactly `sessions` arrivals.
inline constexpr double kDiurnalTroughFraction = 0.15;  ///< relative to peak
inline constexpr double kDiurnalPeakHour = 20.0;        ///< prime time

/// Fraction of sessions that close the player mid-stream.
inline constexpr double kLeaveFraction = 0.02;
/// Fraction of sessions whose served bytes additionally run the fault
/// injector + a real client decode (the soak's live fault-injection arm).
inline constexpr double kFaultFraction = 0.02;

/// The full mix recipe.  Empty deviceClasses/contentProfiles are filled
/// with the defaults below at generation time.
struct TrafficMixConfig {
  std::uint64_t seed = 0x50AC;
  std::size_t sessions = 50'000;
  /// Simulated seconds representing one 24h diurnal day (the soak
  /// compresses a day onto a tractable tick count; one "virtual hour" is
  /// daySeconds / 24 simulated seconds).
  double daySeconds = 600.0;
  double tickSeconds = 0.1;
  std::vector<DeviceClass> deviceClasses;
  std::vector<ContentProfile> contentProfiles;
  std::size_t tenantCount = 8;
};

/// One planned session: where on the day it arrives and which cell of the
/// (device class x content profile x tenant) cross-product it belongs to.
struct SessionPlan {
  std::uint64_t arrivalTick = 0;
  std::uint32_t deviceClass = 0;
  std::uint32_t contentProfile = 0;
  std::uint32_t tenant = 0;
  double bandwidthScale = 1.0;
  /// Nonzero: fault-inject this session's served bytes and decode them
  /// through a real ClientSession after playback completes.
  std::uint64_t faultSeed = 0;
  /// Nonzero: leave() this many ticks after arrival (if still active).
  std::uint64_t leaveAfterTicks = 0;

  friend bool operator==(const SessionPlan&, const SessionPlan&) = default;
};

/// A generated mix: resolved config, tenant configs, and the schedule
/// (sorted by arrivalTick, stable in plan order).
struct TrafficMix {
  TrafficMixConfig config;  ///< with defaults filled in
  std::vector<core::AnnotatorConfig> tenants;
  std::vector<SessionPlan> sessions;
  std::uint64_t ticks = 0;  ///< schedule horizon (arrivals all land before)
  /// Planned arrivals per virtual hour (24 buckets over daySeconds).
  std::vector<std::size_t> arrivalsPerHour;

  /// Unique (content profile, tenant fingerprint) pairs the schedule
  /// touches == the engine passes a big-enough TrackCache will pay.
  [[nodiscard]] std::size_t uniqueAnnotationKeys() const;
};

/// Four default device classes (paper PDAs + a lossy "commute" profile).
[[nodiscard]] std::vector<DeviceClass> defaultDeviceClasses();

/// `count` content profiles drawn from the ten paper clips with varied
/// durations (count > 10 wraps with a different durationScale).
[[nodiscard]] std::vector<ContentProfile> defaultContentProfiles(
    std::size_t count);

/// `count` plan-distinct tenant configs (distinct fingerprints by
/// construction, pinned by tests/soak): detector / granularity / ladder /
/// credits / backend variations, then active-threshold nudges past ten.
[[nodiscard]] std::vector<core::AnnotatorConfig> makeTenantConfigs(
    std::size_t count);

/// Relative arrival rate at `hourOfDay` in [0, 24).
[[nodiscard]] double diurnalWeight(double hourOfDay);

/// Expands a config into the full deterministic schedule.  Throws
/// std::invalid_argument on a degenerate config (no sessions, bad tick or
/// day length, zero tenants).
[[nodiscard]] TrafficMix generateTrafficMix(TrafficMixConfig cfg);

}  // namespace anno::soak
