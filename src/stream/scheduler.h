// Fleet-scale session scheduler: drives thousands of concurrent client
// sessions over the in-process network simulation from ONE deterministic
// discrete-tick loop.
//
// The paper's economics only work at fleet scale: annotation is computed
// once upstream so that thousands of battery-constrained clients can reuse
// it.  This scheduler is the serving half of that claim.  Sessions join
// (negotiate + resolve their stream through the MediaServer's stream cache,
// hence through the shared TrackCache on a miss), are paced by a per-tick
// service budget under a round-robin or deadline-ordered policy, and leave
// cleanly mid-stream.  Concurrency
// here means sessions in flight, not threads: one loop owns every session,
// so a 10k-session run is exactly reproducible.
//
// Engine-seconds stay sub-linear in client count because joins share:
// every (clip, tenant fingerprint) pair costs at most one engine pass
// (TrackCache single-flight) and every (clip, fingerprint, capability
// bytes) group costs at most one compensate+encode+mux while its stream
// stays cached (stream cache, bounded by its byte budget).  The fleet
// bench (bench/bench_fleet.cpp) measures exactly this.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "concurrency/thread_pool.h"
#include "core/engine.h"
#include "stream/server.h"
#include "stream/session_sim.h"

namespace anno::telemetry {
class Registry;
class Counter;
class Gauge;
class Histogram;
class HealthMonitor;
}

namespace anno::stream {

/// How the per-tick service budget is spent across sessions wanting bytes.
enum class SchedulePolicy : std::uint8_t {
  /// Fair rotation: pick up where the previous tick stopped.
  kRoundRobin = 0,
  /// Urgency order: sessions closest to buffer underrun are serviced first
  /// (ties broken by session id, so the order is total and deterministic).
  kDeadline = 1,
};

/// Per-session lifecycle (the state machine tests/fleet pins).
///
///   join() -> kBuffering -> kPlaying <-> kStalled -> kCompleted
///                  \------------ leave() ------------> kLeft
enum class SessionPhase : std::uint8_t {
  kBuffering = 0,  ///< delivered bytes accumulating toward startup
  kPlaying = 1,    ///< consuming buffered content in real time
  kStalled = 2,    ///< buffer ran dry mid-playback (rebuffering)
  kCompleted = 3,  ///< every content second played; terminal
  kLeft = 4,       ///< leave() mid-stream; terminal
};

/// One session's parameters at join time.
struct FleetSessionConfig {
  std::string clipName;
  ClientCapabilities caps;
  /// Annotator config this session's tenant runs; null = the server's
  /// default config.  Sessions sharing a fingerprint share one engine pass.
  std::optional<core::AnnotatorConfig> tenantCfg;
  /// Link bandwidth over time (shared shapes are cheap to copy).
  BandwidthTrace bandwidth = BandwidthTrace::constant(4e6);
  double startupBufferSeconds = 1.0;
  double bufferCapacitySeconds = 8.0;
  /// When true, the muxed stream is decoded through a real ClientSession on
  /// completion and the result recorded in the report (full end-to-end
  /// validation -- intended for small fleets, not 10k-session benches).
  bool decodeOnComplete = false;
  /// Mean backlight watts this session's annotation schedule saves while it
  /// plays.  Purely observational: it feeds the playing-power gauges the
  /// health layer watches (watts-saved-per-session SLO) and changes no
  /// scheduling decision.
  double powerWeight = 0.0;
};

/// Final (or latest) per-session accounting.
struct SessionReport {
  SessionPhase phase = SessionPhase::kBuffering;
  double startupDelaySeconds = 0.0;  ///< valid once playback started
  double playedSeconds = 0.0;
  double stallSeconds = 0.0;
  std::size_t stalls = 0;
  std::size_t streamBytes = 0;
  std::size_t bytesDelivered = 0;
  /// decodeOnComplete verdict (unset when disabled or not yet completed).
  std::optional<bool> decodeOk;

  friend bool operator==(const SessionReport&, const SessionReport&) = default;
};

/// Fleet-level accounting.
struct FleetStats {
  std::size_t sessionsJoined = 0;
  std::size_t sessionsCompleted = 0;
  std::size_t sessionsLeft = 0;
  std::size_t activeSessions = 0;
  std::size_t peakConcurrentSessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t stallEvents = 0;
  double stallSeconds = 0.0;
  std::uint64_t bytesDelivered = 0;
  /// Distinct streams joined (unique StreamKeys: clip revision,
  /// fingerprint, caps) -- the denominator of the fleet's sharing story.
  /// A re-ingested clip counts as a new stream.
  std::size_t uniqueStreams = 0;
};

/// The scheduler.  Owns no threads; not itself thread-safe (one driver).
class SessionScheduler {
 public:
  struct Config {
    SchedulePolicy policy = SchedulePolicy::kRoundRobin;
    double tickSeconds = 0.1;
    /// Sessions granted delivery per tick (models server egress capacity);
    /// 0 = unlimited (every wanting session is serviced each tick).
    std::size_t serviceBudgetPerTick = 0;
    /// Worker threads for the delivery phase of tick().  1 = serial (the
    /// default), 0 = one per hardware thread, N = exactly N.  Per-session
    /// delivery is independent state, so it parallelizes; policy selection
    /// and stats accumulation stay on the driving thread in service order,
    /// which keeps every report and counter BIT-IDENTICAL to the serial
    /// tick at any thread count (pinned by tests/fleet + tests/soak).
    unsigned deliveryThreads = 1;
  };

  /// `server` must outlive the scheduler.  Attach a TrackCache to the
  /// server first for cross-tenant sharing.
  explicit SessionScheduler(const MediaServer& server);
  SessionScheduler(const MediaServer& server, Config cfg);

  /// Negotiates and admits a session; returns its id.  The stream is
  /// resolved immediately through MediaServer::openStream (one caps
  /// encode, one catalog lookup, one stream-cache lookup), so join cost is
  /// amortized across every session sharing the same (clip revision,
  /// fingerprint, capabilities).  Throws what openStream() throws (unknown
  /// clip, quality index out of range).
  std::uint64_t join(const FleetSessionConfig& cfg);

  /// Removes a session mid-stream (user closed the player).  Terminal:
  /// the session keeps its accounting but receives no further service.
  /// Returns false for unknown/already-terminal ids.
  bool leave(std::uint64_t sessionId);

  /// Advances simulated time by one tick: spends the service budget over
  /// wanting sessions per the policy, then advances every active session's
  /// playback clock (startup, stall and completion transitions).
  void tick();

  /// Ticks until every session is terminal (or `maxTicks` elapse).
  /// Returns the number of ticks run.
  std::uint64_t run(std::uint64_t maxTicks = 1'000'000);

  /// Changes the per-tick service budget mid-run (0 = unlimited) -- the
  /// capacity-squeeze lever degradation drills pull.
  void setServiceBudget(std::size_t sessionsPerTick) noexcept {
    cfg_.serviceBudgetPerTick = sessionsPerTick;
  }

  [[nodiscard]] bool allSessionsTerminal() const;
  [[nodiscard]] double nowSeconds() const noexcept { return now_; }
  [[nodiscard]] FleetStats stats() const;
  /// Latest accounting for one session (throws std::out_of_range on
  /// unknown ids).
  [[nodiscard]] SessionReport report(std::uint64_t sessionId) const;

  /// Registers fleet instruments in `registry` and starts recording:
  ///   anno_fleet_sessions_joined_total / anno_fleet_sessions_completed_total
  ///   / anno_fleet_sessions_left_total, anno_fleet_sessions_active,
  ///   anno_fleet_stalls_total, anno_fleet_ticks_total,
  ///   anno_fleet_session_ticks_total (active-session-ticks: the stall-rate
  ///   denominator), anno_fleet_bytes_delivered_total,
  ///   anno_fleet_unique_streams, anno_fleet_startup_seconds (histogram),
  ///   anno_fleet_sessions_playing, anno_fleet_playing_power_milliwatts.
  /// Same null-object contract as the other subsystems.
  void attachTelemetry(telemetry::Registry& registry);
  void detachTelemetry() noexcept;

  /// Couples a HealthMonitor to the tick loop: after each tick's playback
  /// phase the monitor observes once, so its window indices line up 1:1
  /// with scheduler ticks.  Null-object contract: detached = one branch.
  /// The monitor must outlive the scheduler or be detached first.
  void attachHealth(telemetry::HealthMonitor* health) noexcept {
    health_ = health;
  }

 private:
  struct Session {
    std::uint64_t id = 0;
    SessionPhase phase = SessionPhase::kBuffering;
    FleetSessionConfig cfg;
    StreamPtr stream;
    double durationSeconds = 0.0;
    double bytesPerContentSecond = 0.0;
    double joinedAtSeconds = 0.0;
    /// Exact (fractional) bytes delivered -- slow links deliver less than a
    /// byte per tick, and truncating would strand the stream's tail.
    double bytesDelivered = 0.0;
    double bufferedSeconds = 0.0;   ///< delivered but not yet played
    double playedSeconds = 0.0;
    double startupDelaySeconds = 0.0;
    double stallSeconds = 0.0;
    std::size_t stalls = 0;
    bool started = false;
    std::optional<bool> decodeOk;
  };

  struct Telemetry {
    telemetry::Counter* joined = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* left = nullptr;
    telemetry::Gauge* active = nullptr;
    telemetry::Counter* stalls = nullptr;
    telemetry::Counter* ticks = nullptr;
    telemetry::Counter* sessionTicks = nullptr;
    telemetry::Counter* bytesDelivered = nullptr;
    telemetry::Gauge* uniqueStreams = nullptr;
    telemetry::Histogram* startupSeconds = nullptr;
    telemetry::Gauge* playing = nullptr;
    telemetry::Gauge* playingPowerMilliwatts = nullptr;
  };

  [[nodiscard]] bool wantsService(const Session& s) const;
  /// Applies one tick's delivery to `s` (session-local state only) and
  /// returns the bytes delivered; fleet stats/telemetry are accumulated by
  /// deliverAll so the per-session work can run on a worker thread.
  double deliverTo(Session& s) const;
  /// Delivers to every selected session (in `serviced` order), on the
  /// delivery pool when one is configured, then folds the per-delivery
  /// byte counts into stats in service order.
  void deliverAll(const std::vector<Session*>& serviced);
  void advancePlayback(Session& s);
  void finishSession(Session& s);
  [[nodiscard]] static SessionReport reportOf(const Session& s);
  /// Playing-cohort accounting: a session enters the cohort when playback
  /// starts and exits when it turns terminal; the two gauges the health
  /// layer ratios (sessions playing, their summed powerWeight) move on
  /// exactly those transitions.
  void enterPlaying(const Session& s);
  void exitPlaying(const Session& s);

  const MediaServer& server_;
  Config cfg_;
  /// Delivery-phase workers (null pool = serial; see Config.deliveryThreads).
  concurrency::PoolLease deliveryPool_;
  double now_ = 0.0;
  std::uint64_t nextId_ = 1;
  std::uint64_t rrCursor_ = 0;  ///< round-robin resume point (session id)
  /// Active (non-terminal) sessions in id order; terminal sessions move to
  /// reports_ so the hot loop never iterates the departed.
  std::map<std::uint64_t, Session> active_;
  std::map<std::uint64_t, SessionReport> reports_;
  /// Every StreamKey a session has joined (FleetStats::uniqueStreams).
  /// The bytes live in the server's stream cache; sessions hold
  /// shared_ptrs, so 10k identical sessions cost one copy.
  std::set<StreamKey> joined_;
  FleetStats stats_;
  Telemetry metrics_;
  std::int64_t playingCount_ = 0;
  std::int64_t playingPowerMilliwatts_ = 0;
  telemetry::HealthMonitor* health_ = nullptr;
};

}  // namespace anno::stream
