#include "stream/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "concurrency/parallel.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"

namespace anno::stream {

SessionScheduler::SessionScheduler(const MediaServer& server)
    : SessionScheduler(server, Config{}) {}

SessionScheduler::SessionScheduler(const MediaServer& server, Config cfg)
    : server_(server),
      cfg_(cfg),
      deliveryPool_(concurrency::leaseFor(cfg.deliveryThreads)) {
  if (cfg_.tickSeconds <= 0.0) {
    throw std::invalid_argument("SessionScheduler: tickSeconds must be > 0");
  }
}

std::uint64_t SessionScheduler::join(const FleetSessionConfig& cfg) {
  Session s;
  s.id = nextId_++;
  s.bandwidth = cfg.bandwidth;
  s.startupBufferSeconds = cfg.startupBufferSeconds;
  s.bufferCapacitySeconds = cfg.bufferCapacitySeconds;
  s.powerWeight = cfg.powerWeight;
  s.joinedAtSeconds = now_;

  // Resolve the stream through the server's stream cache: N sessions of
  // one (clip revision, fingerprint, capabilities) group share ONE byte
  // vector, and the server pays one compensate+encode+mux for all of them.
  ServedStream served = server_.openStream(
      cfg.clipName, cfg.caps, cfg.tenantCfg ? &*cfg.tenantCfg : nullptr);
  s.stream = std::move(served.bytes);
  if (joined_.insert(served.key).second) {
    stats_.uniqueStreams = joined_.size();
    telemetry::set(metrics_.uniqueStreams,
                   static_cast<std::int64_t>(joined_.size()));
  }

  const media::VideoClip& clip = served.entry->original;
  const double fps = clip.fps > 0.0 ? clip.fps : 1.0;
  s.durationSeconds = static_cast<double>(clip.frames.size()) / fps;
  if (s.durationSeconds <= 0.0) s.durationSeconds = cfg_.tickSeconds;
  s.bytesPerContentSecond =
      static_cast<double>(s.stream->size()) / s.durationSeconds;

  const std::uint64_t id = s.id;
  active_.emplace(id, std::move(s));
  ++stats_.sessionsJoined;
  stats_.activeSessions = active_.size();
  stats_.peakConcurrentSessions =
      std::max(stats_.peakConcurrentSessions, active_.size());
  telemetry::inc(metrics_.joined);
  telemetry::set(metrics_.active, static_cast<std::int64_t>(active_.size()));
  return id;
}

bool SessionScheduler::leave(std::uint64_t sessionId) {
  const auto it = active_.find(sessionId);
  if (it == active_.end()) return false;
  Session& s = it->second;
  s.phase = SessionPhase::kLeft;
  ++stats_.sessionsLeft;
  telemetry::inc(metrics_.left);
  if (s.started) exitPlaying(s);
  finishSession(s);
  active_.erase(it);
  stats_.activeSessions = active_.size();
  telemetry::set(metrics_.active, static_cast<std::int64_t>(active_.size()));
  return true;
}

bool SessionScheduler::wantsService(const Session& s) const {
  return s.bytesDelivered < static_cast<double>(s.stream->size()) &&
         s.bufferedSeconds < s.bufferCapacitySeconds;
}

double SessionScheduler::deliverTo(Session& s) const {
  const double elapsed = now_ - s.joinedAtSeconds;
  const double rate = s.bandwidth.at(elapsed);  // bits/sec
  double bytes = rate / 8.0 * cfg_.tickSeconds;
  const double remaining =
      static_cast<double>(s.stream->size()) - s.bytesDelivered;
  bytes = std::min(bytes, remaining);
  // Flow control: never deliver past the buffer cap.
  const double capBytes = (s.bufferCapacitySeconds - s.bufferedSeconds) *
                          s.bytesPerContentSecond;
  bytes = std::min(bytes, std::max(0.0, capBytes));
  s.bytesDelivered += bytes;
  s.bufferedSeconds += bytes / s.bytesPerContentSecond;
  return bytes;
}

void SessionScheduler::deliverAll(const std::vector<Session*>& serviced) {
  const std::size_t n = serviced.size();
  if (n == 0) return;
  concurrency::ThreadPool* pool = deliveryPool_.get();
  if (pool == nullptr) {
    for (Session* s : serviced) {
      const double bytes = deliverTo(*s);
      stats_.bytesDelivered += static_cast<std::uint64_t>(bytes);
      telemetry::inc(metrics_.bytesDelivered, static_cast<std::size_t>(bytes));
    }
    return;
  }
  // Parallel phase: each delivery touches only its own session (the policy
  // selected distinct sessions), so disjoint ranges are race-free.  The
  // grain is fixed -- chunk boundaries must not depend on pool size.
  std::vector<double> bytesFor(n);
  concurrency::parallelFor(pool, n, /*grain=*/64,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               bytesFor[i] = deliverTo(*serviced[i]);
                             }
                           });
  // Fold per-delivery byte counts serially IN SERVICE ORDER: the per-call
  // uint64 truncation below must accumulate exactly as the serial tick's,
  // or stats would drift from the single-threaded run.
  for (std::size_t i = 0; i < n; ++i) {
    stats_.bytesDelivered += static_cast<std::uint64_t>(bytesFor[i]);
    telemetry::inc(metrics_.bytesDelivered,
                   static_cast<std::size_t>(bytesFor[i]));
  }
}

void SessionScheduler::advancePlayback(Session& s) {
  const bool fullyDelivered =
      s.bytesDelivered >= static_cast<double>(s.stream->size()) - 1e-6;
  if (!s.started) {
    if (s.bufferedSeconds >= s.startupBufferSeconds || fullyDelivered) {
      s.started = true;
      s.startupDelaySeconds = now_ + cfg_.tickSeconds - s.joinedAtSeconds;
      s.phase = SessionPhase::kPlaying;
      telemetry::observe(metrics_.startupSeconds, s.startupDelaySeconds);
      enterPlaying(s);
    }
    return;  // still kBuffering
  }
  const double want =
      std::min(cfg_.tickSeconds, s.durationSeconds - s.playedSeconds);
  const double canPlay = std::min(want, s.bufferedSeconds);
  s.playedSeconds += canPlay;
  s.bufferedSeconds -= canPlay;
  if (s.playedSeconds >= s.durationSeconds - 1e-9) {
    s.phase = SessionPhase::kCompleted;
    return;
  }
  if (canPlay + 1e-12 < want && !fullyDelivered) {
    // Buffer ran dry mid-playback: a rebuffering stall.
    if (s.phase != SessionPhase::kStalled) {
      s.phase = SessionPhase::kStalled;
      ++s.stalls;
      ++stats_.stallEvents;
      telemetry::inc(metrics_.stalls);
    }
    s.stallSeconds += want - canPlay;
    stats_.stallSeconds += want - canPlay;
  } else {
    s.phase = SessionPhase::kPlaying;
  }
}

void SessionScheduler::finishSession(Session& s) {
  reports_[s.id] = reportOf(s);
}

SessionReport SessionScheduler::reportOf(const Session& s) {
  SessionReport r;
  r.phase = s.phase;
  r.startupDelaySeconds = s.startupDelaySeconds;
  r.playedSeconds = s.playedSeconds;
  r.stallSeconds = s.stallSeconds;
  r.stalls = s.stalls;
  r.streamBytes = s.stream->size();
  r.bytesDelivered = static_cast<std::size_t>(s.bytesDelivered);
  return r;
}

void SessionScheduler::tick() {
  // Phase 1: spend the service budget.
  if (!active_.empty()) {
    std::vector<Session*> wanting;
    wanting.reserve(active_.size());
    for (auto& [id, s] : active_) {
      if (wantsService(s)) wanting.push_back(&s);
    }
    const std::size_t budget = cfg_.serviceBudgetPerTick == 0
                                   ? wanting.size()
                                   : cfg_.serviceBudgetPerTick;
    if (budget >= wanting.size()) {
      deliverAll(wanting);
    } else if (cfg_.policy == SchedulePolicy::kDeadline) {
      // Urgency = content-seconds of headroom before underrun; unstarted
      // sessions count distance to their startup threshold.  Ascending,
      // ties by id -- a total, deterministic order.
      const auto moreUrgent = [](const Session* a, const Session* b) {
        const double ua = a->started ? a->bufferedSeconds
                                     : a->bufferedSeconds -
                                           a->startupBufferSeconds;
        const double ub = b->started ? b->bufferedSeconds
                                     : b->bufferedSeconds -
                                           b->startupBufferSeconds;
        if (ua != ub) return ua < ub;
        return a->id < b->id;
      };
      // Budget-sized heap selection: keep the `budget` most urgent in a
      // max-heap (front = least urgent of the kept set) and stream the
      // rest past it in one scan -- O(n log budget) against partial_sort's
      // O(n log n), which matters in the oversubscribed steady state where
      // budget << wanting.  The comparator is a strict total order (ties
      // fall through to the unique id), so the selected set and the final
      // ascending service order are exactly what partial_sort produced.
      const auto mid =
          wanting.begin() + static_cast<std::ptrdiff_t>(budget);
      std::make_heap(wanting.begin(), mid, moreUrgent);
      for (auto it = mid; it != wanting.end(); ++it) {
        if (moreUrgent(*it, wanting.front())) {
          std::pop_heap(wanting.begin(), mid, moreUrgent);
          *(mid - 1) = *it;
          std::push_heap(wanting.begin(), mid, moreUrgent);
        }
      }
      std::sort_heap(wanting.begin(), mid, moreUrgent);
      wanting.resize(budget);
      deliverAll(wanting);
    } else {
      // Round-robin: resume after the last id serviced on a previous tick.
      const auto firstAbove = std::partition_point(
          wanting.begin(), wanting.end(),
          [this](const Session* s) { return s->id <= rrCursor_; });
      std::vector<Session*> serviced;
      serviced.reserve(budget);
      std::size_t spent = 0;
      auto it = firstAbove;
      while (spent < budget) {
        if (it == wanting.end()) it = wanting.begin();
        serviced.push_back(*it);
        rrCursor_ = (*it)->id;
        ++it;
        ++spent;
      }
      deliverAll(serviced);
    }
  }

  // Phase 2: advance every active session's playback clock.
  now_ += cfg_.tickSeconds;
  ++stats_.ticks;
  telemetry::inc(metrics_.ticks);
  // Session-ticks: the per-session exposure this tick (the stall-rate SLO's
  // denominator -- stalls per session-tick, not per wall tick).
  telemetry::inc(metrics_.sessionTicks, active_.size());
  for (auto it = active_.begin(); it != active_.end();) {
    Session& s = it->second;
    advancePlayback(s);
    if (s.phase == SessionPhase::kCompleted) {
      ++stats_.sessionsCompleted;
      telemetry::inc(metrics_.completed);
      exitPlaying(s);
      finishSession(s);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.activeSessions = active_.size();
  telemetry::set(metrics_.active, static_cast<std::int64_t>(active_.size()));
  if (health_ != nullptr) health_->observe();
}

void SessionScheduler::enterPlaying(const Session& s) {
  ++playingCount_;
  playingPowerMilliwatts_ +=
      static_cast<std::int64_t>(std::llround(s.powerWeight * 1000.0));
  telemetry::set(metrics_.playing, playingCount_);
  telemetry::set(metrics_.playingPowerMilliwatts, playingPowerMilliwatts_);
}

void SessionScheduler::exitPlaying(const Session& s) {
  --playingCount_;
  playingPowerMilliwatts_ -=
      static_cast<std::int64_t>(std::llround(s.powerWeight * 1000.0));
  telemetry::set(metrics_.playing, playingCount_);
  telemetry::set(metrics_.playingPowerMilliwatts, playingPowerMilliwatts_);
}

std::uint64_t SessionScheduler::run(std::uint64_t maxTicks) {
  std::uint64_t ran = 0;
  while (!allSessionsTerminal() && ran < maxTicks) {
    tick();
    ++ran;
  }
  return ran;
}

bool SessionScheduler::allSessionsTerminal() const { return active_.empty(); }

FleetStats SessionScheduler::stats() const { return stats_; }

SessionReport SessionScheduler::report(std::uint64_t sessionId) const {
  const auto done = reports_.find(sessionId);
  if (done != reports_.end()) return done->second;
  const auto it = active_.find(sessionId);
  if (it == active_.end()) {
    throw std::out_of_range("SessionScheduler::report: unknown session id " +
                            std::to_string(sessionId));
  }
  return reportOf(it->second);
}

void SessionScheduler::attachTelemetry(telemetry::Registry& registry) {
  metrics_.joined = &registry.counter(
      "anno_fleet_sessions_joined_total", {}, "Sessions admitted by join()");
  metrics_.completed = &registry.counter(
      "anno_fleet_sessions_completed_total", {},
      "Sessions that played their whole clip");
  metrics_.left = &registry.counter(
      "anno_fleet_sessions_left_total", {},
      "Sessions removed mid-stream by leave()");
  metrics_.active = &registry.gauge(
      "anno_fleet_sessions_active", {}, "Sessions currently in flight");
  metrics_.stalls = &registry.counter(
      "anno_fleet_stalls_total", {}, "Rebuffering events across the fleet");
  metrics_.ticks = &registry.counter(
      "anno_fleet_ticks_total", {}, "Scheduler ticks run");
  metrics_.sessionTicks = &registry.counter(
      "anno_fleet_session_ticks_total", {},
      "Active-session ticks (per-session exposure; stall-rate denominator)");
  metrics_.bytesDelivered = &registry.counter(
      "anno_fleet_bytes_delivered_total", {},
      "Stream bytes delivered to sessions");
  metrics_.uniqueStreams = &registry.gauge(
      "anno_fleet_unique_streams", {},
      "Distinct (clip, fingerprint, capabilities) streams materialized");
  metrics_.startupSeconds = &registry.histogram(
      "anno_fleet_startup_seconds",
      {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}, {},
      "Join-to-first-play delay per session");
  metrics_.playing = &registry.gauge(
      "anno_fleet_sessions_playing", {},
      "Sessions past startup and not yet terminal");
  metrics_.playingPowerMilliwatts = &registry.gauge(
      "anno_fleet_playing_power_milliwatts", {},
      "Summed per-session saved backlight power over the playing cohort");
  telemetry::set(metrics_.active, static_cast<std::int64_t>(active_.size()));
  telemetry::set(metrics_.uniqueStreams,
                 static_cast<std::int64_t>(joined_.size()));
  telemetry::set(metrics_.playing, playingCount_);
  telemetry::set(metrics_.playingPowerMilliwatts, playingPowerMilliwatts_);
}

void SessionScheduler::detachTelemetry() noexcept { metrics_ = Telemetry{}; }

}  // namespace anno::stream
