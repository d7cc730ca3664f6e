// The fleet soak driver: replays a TrafficMix against the REAL serving
// stack -- MediaServer + TrackCache + SessionScheduler (and, for the
// fault-injection arm, fault::injectFaults + a real ClientSession decode) --
// and rolls the per-session accounting up into one fleet-level report.
//
// This is the composition PR 1-8 built toward: the engine, the codec's
// lenient decode, the cache's single-flight sharing, the scheduler's
// discrete-tick playback and the fault injectors all run together for tens
// of thousands of sessions over a diurnal day.  The report answers the
// north-star questions directly: watts saved per million streaming
// sessions, p50/p99 startup and rebuffer, annotation-cache hit rate, and
// engine-seconds per served-hour.
//
// Determinism contract: every field of FleetSoakReport except the
// `measured` wall-clock block is a pure function of SoakConfig -- same
// config, same report, on any machine and at any deliveryThreads setting
// (the scheduler's worker-pool tick is pinned identical to serial).
// deterministicJson() serializes exactly that reproducible core; the
// fleet_soak tool diffs it across two same-seed runs as its self-check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "soak/traffic_mix.h"
#include "stream/scheduler.h"
#include "telemetry/health.h"

namespace anno::soak {

/// One injected mid-run degradation: a deterministic fault the health layer
/// is expected to catch (tools/fleet_health drives these and asserts which
/// rules fire when).
struct Degradation {
  enum class Kind : std::uint8_t {
    /// Force `magnitude` of arrivals (fraction, 0..1) into the
    /// fault-injection arm regardless of kFaultFraction.
    kFaultRateStep = 0,
    /// Multiply the TrackCache byte budget by `magnitude` (e.g. 1/1024).
    kCacheSqueeze = 1,
    /// Clamp the scheduler's per-tick service budget to `magnitude`
    /// sessions (an egress-capacity loss).
    kServiceBudgetSqueeze = 2,
    /// Multiply the powerWeight of JOINING sessions by `magnitude` -- a
    /// power-savings regression visible only through the playing-power
    /// gauges (the joules roll-up keeps using the true per-cell watts, so
    /// this drill perturbs exactly what the watts SLO watches).
    kPowerRegression = 3,
  };
  Kind kind = Kind::kFaultRateStep;
  std::uint64_t startTick = 0;
  /// Exclusive end; 0 = rest of the run.
  std::uint64_t endTick = 0;
  double magnitude = 0.0;
};

/// The soak's live-health arm: when enabled, the serving stack runs with a
/// registry attached, a HealthMonitor observing every tick, and a
/// FlightRecorder (default config) freezing a trace capture on each firing.
struct HealthOptions {
  bool enabled = false;
  telemetry::HealthConfig config;
};

/// Signals + rules tuned to this mix's scale: stall rate < 0.5% of
/// session-ticks, cache hit rate > 85%, startup p99 < 2s, fault-session
/// rate < 8%, and (when `expectedWattsPerMillionSessions` > 0) watts saved
/// per million playing sessions inside [0.5x, 2x] of expectation.  Windows
/// derive from the mix's virtual hour so the rules mean the same thing at
/// any day length.
[[nodiscard]] HealthOptions defaultHealthOptions(
    const TrafficMixConfig& mix,
    double expectedWattsPerMillionSessions = 0.0);

/// Everything a soak run needs beyond the mix itself.
struct SoakConfig {
  TrafficMixConfig mix;
  stream::SchedulePolicy policy = stream::SchedulePolicy::kRoundRobin;
  /// Sessions granted delivery per scheduler tick (0 = unlimited).
  std::size_t serviceBudgetPerTick = 0;
  /// Scheduler delivery-phase worker threads (1 = serial, 0 = hardware).
  unsigned deliveryThreads = 1;
  /// Server ingest threads (cosmetic for all outputs; 0 = hardware).
  unsigned ingestThreads = 0;
  /// TrackCache byte budget.  The default is generous: the soak measures
  /// sharing; eviction churn has its own suite (tests/soak).
  std::size_t cacheByteBudget = 256u << 20;
  /// Live-health arm (off by default: a plain soak pays nothing).
  HealthOptions health;
  /// Deterministic mid-run faults for the health layer to catch.
  std::vector<Degradation> degradations;
};

/// One virtual hour of the day (24 per run): the diurnal roll-up behind
/// `plot_results.py --soak`.
struct SoakHourBucket {
  std::size_t arrivals = 0;
  std::size_t completions = 0;
  std::size_t activeAtEnd = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t stallEvents = 0;
  std::uint64_t bytesDelivered = 0;
  /// Joules saved by sessions ARRIVING in this bucket (attribution by
  /// arrival keeps the number deterministic and single-counted).
  double joulesSaved = 0.0;
  double servedSeconds = 0.0;
  std::uint64_t streamCacheHits = 0;
  std::uint64_t streamCacheEvictions = 0;
  std::size_t streamCacheBytes = 0;  ///< resident at the bucket's last tick

  [[nodiscard]] double hitRate() const noexcept {
    const std::uint64_t total = cacheHits + cacheMisses;
    return total > 0 ? static_cast<double>(cacheHits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// One cell of the (tenant x device class x content profile) cross-product:
/// the capacity model's fitting unit.
struct SoakCell {
  std::uint32_t tenant = 0;
  std::uint32_t deviceClass = 0;
  std::uint32_t contentProfile = 0;
  std::uint64_t sessions = 0;
  std::uint64_t started = 0;    ///< reached playback (startup stats valid)
  std::uint64_t completed = 0;
  double servedSeconds = 0.0;
  double joulesSaved = 0.0;     ///< backlight joules vs full-backlight
  double startupSecondsSum = 0.0;
  double stallSecondsSum = 0.0;
  double streamBytesSum = 0.0;

  friend bool operator==(const SoakCell&, const SoakCell&) = default;
};

/// One SLO transition, stamped with its diurnal hour.
struct SoakHealthEvent {
  std::string rule;
  bool fired = false;
  std::uint64_t tick = 0;
  std::size_t hour = 0;
  double fastValue = 0.0;
  double slowValue = 0.0;
  double limit = 0.0;

  friend bool operator==(const SoakHealthEvent&,
                         const SoakHealthEvent&) = default;
};

/// Final per-rule verdict.
struct SoakHealthRule {
  std::string name;
  std::string state;  ///< warmup | ok | firing
  std::uint64_t fireCount = 0;
  double fastValue = 0.0;
  double margin = 0.0;

  friend bool operator==(const SoakHealthRule&,
                         const SoakHealthRule&) = default;
};

/// Per-rule margin sampled at each virtual-hour boundary (the time series
/// behind plot_results.py --health).
struct SoakHealthSample {
  std::uint64_t tick = 0;
  std::size_t hour = 0;
  std::string rule;
  std::string state;
  double fastValue = 0.0;
  double margin = 0.0;

  friend bool operator==(const SoakHealthSample&,
                         const SoakHealthSample&) = default;
};

/// The fleet-level report.
struct FleetSoakReport {
  // --- deterministic core -------------------------------------------------
  std::uint64_t seed = 0;
  std::size_t sessionsPlanned = 0;
  std::size_t sessionsJoined = 0;
  std::size_t sessionsCompleted = 0;
  std::size_t sessionsLeft = 0;
  std::size_t peakConcurrentSessions = 0;
  std::uint64_t ticks = 0;
  std::size_t tenants = 0;
  std::size_t deviceClasses = 0;
  std::size_t contentProfiles = 0;
  std::size_t uniqueStreams = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheFills = 0;       ///< == engine passes
  std::uint64_t cacheEvictions = 0;
  double cacheHitRate = 0.0;
  // The server's stream cache: looked up only at join and in the serial
  // fault arm, so deterministic like the annotation-cache counters.
  std::uint64_t streamCacheHits = 0;
  std::uint64_t streamCacheEvictions = 0;
  std::size_t streamCacheBytes = 0;   ///< resident at the end of the run
  double servedHours = 0.0;           ///< sum of played content time
  double joulesSaved = 0.0;           ///< backlight joules vs full backlight
  /// Mean backlight watts saved per active session, scaled to a fleet of
  /// one million concurrent sessions: (joulesSaved / servedSeconds) * 1e6.
  double wattsSavedPerMillionSessions = 0.0;
  /// Same roll-up as a fraction of full-backlight power (device-mix
  /// weighted): the paper's Fig. 9 number held at fleet scale.
  double backlightSavingsFraction = 0.0;
  double startupP50Seconds = 0.0;
  double startupP99Seconds = 0.0;
  double rebufferP50Seconds = 0.0;
  double rebufferP99Seconds = 0.0;
  std::uint64_t stallEvents = 0;
  double stallSeconds = 0.0;
  std::uint64_t bytesDelivered = 0;
  double enginePassesPerServedHour = 0.0;  ///< deterministic twin of below
  // Fault-injection arm.
  std::size_t faultSessions = 0;        ///< streams mutated + decoded
  std::size_t faultMutationsApplied = 0;
  std::size_t faultDecodeOk = 0;        ///< still playable after damage
  /// Of faultDecodeOk, those degraded to full backlight (the annotation
  /// track was lost), so decodeOk + undecodable == faultSessions.
  std::size_t faultFallbacks = 0;
  std::size_t faultUndecodable = 0;     ///< ok == false (video destroyed)
  std::size_t faultThrows = 0;          ///< MUST stay 0: receive never throws
  std::vector<SoakHourBucket> hours;    ///< 24 diurnal buckets
  std::vector<SoakCell> cells;          ///< capacity-model observations
  // Live-health arm (all empty/zero when HealthOptions.enabled == false).
  std::vector<SoakHealthEvent> healthEvents;
  std::vector<SoakHealthRule> healthRules;
  std::vector<SoakHealthSample> healthSamples;
  std::uint64_t flightTriggers = 0;     ///< rule firings seen by the recorder
  std::size_t flightCaptureCount = 0;
  // --- measured (wall clock; excluded from the determinism digest) --------
  /// Frozen anomaly traces.  The event SEQUENCE is deterministic but the
  /// wall stamps are real nanoseconds, so captures live outside the digest
  /// (their COUNT above is inside it).
  std::vector<telemetry::FlightRecorder::Capture> flightCaptures;
  double engineSecondsTotal = 0.0;      ///< wall time inside cache fills
  double engineSecondsPerServedHour = 0.0;
  double ingestSeconds = 0.0;
  double soakWallSeconds = 0.0;
};

/// Runs the soak.  Throws only on configuration errors; workload-induced
/// exceptions anywhere in the stack are a bug (the tool counts a run that
/// throws as a crash).
[[nodiscard]] FleetSoakReport runSoak(const SoakConfig& cfg);

/// Serializes ONLY the deterministic core (stable field order, exact
/// formatting): two same-seed runs must produce byte-identical output.
[[nodiscard]] std::string deterministicJson(const FleetSoakReport& report);

/// Full FLEET_SOAK.json body: the deterministic core plus the measured
/// block; `extra` (optional, pre-rendered JSON object members) is appended
/// verbatim -- the tool uses it for the capacity-validation block.
[[nodiscard]] std::string toJson(const FleetSoakReport& report,
                                 const std::string& extra = "");

}  // namespace anno::soak
