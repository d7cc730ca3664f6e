#include "soak/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/runtime.h"
#include "core/track_cache.h"
#include "fault/inject.h"
#include "media/clipgen.h"
#include "stream/client.h"
#include "stream/net.h"
#include "telemetry/metrics.h"

namespace anno::soak {

namespace {

double nowWall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile over an already-sorted sample (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[idx - 1];
}

/// Mean backlight watts SAVED (vs level 255) while playing `track` on
/// `device` at the given negotiation -- averaged across frames, which is
/// exactly the time average because frames are equally spaced.
double meanSavedWatts(const core::AnnotationTrack& track,
                      std::size_t qualityIndex,
                      const display::DeviceModel& device,
                      int minBacklightLevel) {
  if (track.frameCount == 0) return 0.0;
  const core::BacklightSchedule schedule =
      core::buildSchedule(track, qualityIndex, device, minBacklightLevel);
  const double fullWatts = device.backlightPowerWatts(255);
  double savedSum = 0.0;
  for (std::uint32_t f = 0; f < track.frameCount; ++f) {
    savedSum += fullWatts - device.backlightPowerWatts(schedule.levelAt(f));
  }
  return savedSum / static_cast<double>(track.frameCount);
}

void appendKv(std::string& out, const char* key, double value, bool last) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out += "  \"";
  out += key;
  out += "\": ";
  out += buf;
  if (!last) out += ',';
  out += '\n';
}

void appendKv(std::string& out, const char* key, std::uint64_t value,
              bool last) {
  out += "  \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  if (!last) out += ',';
  out += '\n';
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// SplitMix64 finalizer: the forced-fault draw for degradation drills must
/// be a pure function of (mix seed, session id) so the drilled run is as
/// reproducible as the clean one.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

HealthOptions defaultHealthOptions(const TrafficMixConfig& mix,
                                   double expectedWattsPerMillionSessions) {
  using telemetry::HealthSignal;
  using telemetry::HealthSignalKind;
  using telemetry::SloBoundKind;
  using telemetry::SloRule;

  const double hourSeconds = mix.daySeconds / 24.0;
  const std::uint64_t hourTicks = std::max<std::uint64_t>(
      4, static_cast<std::uint64_t>(hourSeconds / mix.tickSeconds));
  const std::uint64_t fast = std::max<std::uint64_t>(5, hourTicks / 2);
  const std::uint64_t slow = 2 * hourTicks;

  HealthOptions opts;
  opts.enabled = true;
  opts.config.tickSeconds = mix.tickSeconds;

  const auto rule = [&](const char* name, SloBoundKind bound, double limit,
                        double limitHigh = 0.0) {
    SloRule r;
    r.name = name;
    r.signal = name;  // rule-per-signal naming keeps reports self-describing
    r.bound = bound;
    r.limit = limit;
    r.limitHigh = limitHigh;
    r.fastWindowTicks = fast;
    r.slowWindowTicks = slow;
    r.clearHoldTicks = fast;
    r.hysteresis = 0.1;
    return r;
  };

  // Stall rate: rebuffer events per active-session tick.
  {
    HealthSignal s;
    s.name = "stall_rate";
    s.kind = HealthSignalKind::kCounterRatio;
    s.metric = "anno_fleet_stalls_total";
    s.denominatorMetrics = {"anno_fleet_session_ticks_total"};
    opts.config.signals.push_back(std::move(s));
    SloRule r = rule("stall_rate", SloBoundKind::kMax, 0.005);
    r.minWeight = 100.0;  // session-ticks of exposure
    opts.config.rules.push_back(std::move(r));
  }
  // Annotation-cache hit rate.  A cold cache is structurally miss-heavy, so
  // the rule warms up for a few virtual hours before judging.
  {
    HealthSignal s;
    s.name = "cache_hit_rate";
    s.kind = HealthSignalKind::kCounterRatio;
    s.metric = "anno_track_cache_hits_total";
    s.denominatorMetrics = {"anno_track_cache_hits_total",
                            "anno_track_cache_misses_total"};
    opts.config.signals.push_back(std::move(s));
    SloRule r = rule("cache_hit_rate", SloBoundKind::kMin, 0.85);
    r.warmupTicks = 4 * hourTicks;
    r.minWeight = 20.0;  // cache lookups in the window
    opts.config.rules.push_back(std::move(r));
  }
  // Startup p99: bucket-interpolated from the scheduler's histogram.
  {
    HealthSignal s;
    s.name = "startup_p99_seconds";
    s.kind = HealthSignalKind::kHistogramQuantile;
    s.metric = "anno_fleet_startup_seconds";
    s.quantile = 0.99;
    opts.config.signals.push_back(std::move(s));
    SloRule r = rule("startup_p99_seconds", SloBoundKind::kMax, 2.0);
    r.minWeight = 20.0;  // session starts in the window
    opts.config.rules.push_back(std::move(r));
  }
  // Fault-session rate among terminal sessions.
  {
    HealthSignal s;
    s.name = "fault_session_rate";
    s.kind = HealthSignalKind::kCounterRatio;
    s.metric = "anno_soak_fault_sessions_total";
    s.denominatorMetrics = {"anno_fleet_sessions_completed_total",
                            "anno_fleet_sessions_left_total"};
    opts.config.signals.push_back(std::move(s));
    SloRule r = rule("fault_session_rate", SloBoundKind::kMax, 0.08);
    r.minWeight = 40.0;  // terminal sessions in the window
    opts.config.rules.push_back(std::move(r));
  }
  // Watts saved per million playing sessions, held to a band around the
  // calibrated expectation.  playing-power gauge is milliwatts per session,
  // so x1e3 scales (mW/session) to (W per million sessions).
  if (expectedWattsPerMillionSessions > 0.0) {
    HealthSignal s;
    s.name = "watts_saved_per_million_sessions";
    s.kind = HealthSignalKind::kGaugeRatio;
    s.metric = "anno_fleet_playing_power_milliwatts";
    s.denominatorMetric = "anno_fleet_sessions_playing";
    s.scale = 1e3;
    opts.config.signals.push_back(std::move(s));
    SloRule r = rule("watts_saved_per_million_sessions", SloBoundKind::kBand,
                     0.5 * expectedWattsPerMillionSessions,
                     2.0 * expectedWattsPerMillionSessions);
    r.warmupTicks = 2 * hourTicks;
    r.minWeight = 10.0 * static_cast<double>(fast);  // playing-session ticks
    opts.config.rules.push_back(std::move(r));
  }
  return opts;
}

FleetSoakReport runSoak(const SoakConfig& cfg) {
  const double wallStart = nowWall();
  const TrafficMix mix = generateTrafficMix(cfg.mix);
  const std::vector<DeviceClass>& classes = mix.config.deviceClasses;
  const std::vector<ContentProfile>& profiles = mix.config.contentProfiles;

  FleetSoakReport report;
  report.seed = mix.config.seed;
  report.sessionsPlanned = mix.sessions.size();
  report.tenants = mix.tenants.size();
  report.deviceClasses = classes.size();
  report.contentProfiles = profiles.size();
  report.hours.assign(24, SoakHourBucket{});
  for (std::size_t h = 0; h < 24; ++h) {
    report.hours[h].arrivals = mix.arrivalsPerHour[h];
  }

  // --- Ingest the catalog -------------------------------------------------
  core::AnnotatorConfig serverCfg;
  serverCfg.threads = cfg.ingestThreads;
  stream::MediaServer server(serverCfg);
  core::TrackCache cache(
      {.shardCount = 16, .byteBudget = cfg.cacheByteBudget});
  server.attachTrackCache(cache);
  {
    const double t0 = nowWall();
    std::vector<media::VideoClip> clips;
    clips.reserve(profiles.size());
    for (const ContentProfile& p : profiles) {
      media::ClipProfile recipe = media::paperClipProfile(
          p.source, p.durationScale, p.width, p.height);
      media::VideoClip clip = media::generateClip(recipe);
      clip.name = p.name;  // distinct catalog entries even across wraps
      clips.push_back(std::move(clip));
    }
    server.addClips(std::move(clips));
    report.ingestSeconds = nowWall() - t0;
  }

  // --- Per-device-class precomputation ------------------------------------
  std::vector<display::DeviceModel> deviceModels;
  std::vector<stream::ClientCapabilities> classCaps;
  deviceModels.reserve(classes.size());
  classCaps.reserve(classes.size());
  for (const DeviceClass& dc : classes) {
    display::DeviceModel dev = display::makeDevice(dc.device);
    stream::ClientCapabilities caps;
    caps.deviceName = dev.name;
    caps.transfer = dev.transfer;
    caps.qualityIndex = dc.qualityIndex;
    caps.minBacklightLevel = dc.minBacklightLevel;
    deviceModels.push_back(std::move(dev));
    classCaps.push_back(std::move(caps));
  }

  // --- The soak loop ------------------------------------------------------
  stream::SessionScheduler::Config schedCfg;
  schedCfg.policy = cfg.policy;
  schedCfg.tickSeconds = mix.config.tickSeconds;
  schedCfg.serviceBudgetPerTick = cfg.serviceBudgetPerTick;
  schedCfg.deliveryThreads = cfg.deliveryThreads;
  stream::SessionScheduler sched(server, schedCfg);

  // --- Live-health arm (registry + monitor + flight recorder) -------------
  telemetry::Registry registry;
  std::unique_ptr<telemetry::HealthMonitor> monitor;
  std::unique_ptr<telemetry::FlightRecorder> flight;
  telemetry::Counter* faultSessionsCounter = nullptr;
  if (cfg.health.enabled) {
    cache.attachTelemetry(registry);
    sched.attachTelemetry(registry);
    faultSessionsCounter = &registry.counter(
        "anno_soak_fault_sessions_total", {},
        "Terminal sessions routed through the fault-injection arm");
    monitor = std::make_unique<telemetry::HealthMonitor>(cfg.health.config,
                                                         &registry);
    if (cfg.health.flightRecorder) {
      flight = std::make_unique<telemetry::FlightRecorder>(cfg.health.flight);
      monitor->attachFlightRecorder(flight.get());
    }
    sched.attachHealth(monitor.get());
  }

  // One buildSchedule per (tenant, device class, content profile) cell: the
  // saved-watts figure is a pure function of the cell.  Filled at each
  // cell's first arrival (reusing the arrival's own annotationFor result,
  // so cache counters are untouched) and reused by the post-loop roll-up.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::pair<double, double>>
      cellWatts;  // cell -> {meanSavedWatts, fullWatts}
  const auto cellSavedWatts = [&](const SessionPlan& plan,
                                  const core::CachedTrackPtr& track) {
    const auto key =
        std::make_tuple(plan.tenant, plan.deviceClass, plan.contentProfile);
    auto it = cellWatts.find(key);
    if (it == cellWatts.end()) {
      const DeviceClass& dc = classes[plan.deviceClass];
      const double saved =
          meanSavedWatts(track->track, dc.qualityIndex,
                         deviceModels[plan.deviceClass], dc.minBacklightLevel);
      const double full =
          deviceModels[plan.deviceClass].backlightPowerWatts(255);
      it = cellWatts.emplace(key, std::make_pair(saved, full)).first;
    }
    return it->second.first;
  };

  struct LiveSession {
    std::uint64_t id = 0;
    std::uint32_t plan = 0;  ///< index into mix.sessions
    std::uint64_t faultSeed = 0;
  };
  std::vector<std::uint32_t> planOf;  // session id -> plan index (ids are 1..N)
  planOf.reserve(mix.sessions.size() + 1);
  planOf.push_back(0);  // ids start at 1
  std::multimap<std::uint64_t, std::uint64_t> leavesAt;  // tick -> session id
  std::vector<LiveSession> faultPending;

  // Fault arm state (deterministic: plan seeds + memoized stream bytes).
  const fault::InjectorConfig faultCfg;  // full repertoire, defaults
  std::vector<std::unique_ptr<stream::ClientSession>> faultClients(
      classes.size());
  const auto runFaultArm = [&](std::uint32_t planIdx,
                               std::uint64_t faultSeed) {
    const SessionPlan& plan = mix.sessions[planIdx];
    const DeviceClass& dc = classes[plan.deviceClass];
    if (!faultClients[plan.deviceClass]) {
      stream::ClientConfig clientCfg;
      clientCfg.device = deviceModels[plan.deviceClass];
      clientCfg.qualityIndex = dc.qualityIndex;
      clientCfg.minBacklightLevel = dc.minBacklightLevel;
      faultClients[plan.deviceClass] = std::make_unique<stream::ClientSession>(
          clientCfg, stream::makeReferencePath());
    }
    // The exact bytes this session streamed (a stream-cache hit).
    const std::vector<std::uint8_t> bytes =
        server.serve(profiles[plan.contentProfile].name,
                     classCaps[plan.deviceClass], mix.tenants[plan.tenant]);
    fault::InjectionReport injection;
    const std::vector<std::uint8_t> damaged =
        fault::injectFaults(bytes, faultSeed, faultCfg, &injection);
    ++report.faultSessions;
    telemetry::inc(faultSessionsCounter);
    report.faultMutationsApplied += injection.mutationsApplied;
    try {
      const stream::ReceivedStream received =
          faultClients[plan.deviceClass]->receive(damaged);
      if (received.ok) {
        ++report.faultDecodeOk;
        if (received.annotationFallback) ++report.faultFallbacks;
      } else {
        ++report.faultUndecodable;
      }
    } catch (...) {
      ++report.faultThrows;  // contract violation; the tool gates on 0
    }
  };

  const std::uint64_t maxTicks =
      cfg.maxTicks != 0 ? cfg.maxTicks : mix.ticks + 1'000'000;
  std::size_t nextPlan = 0;
  std::uint64_t prevCacheHits = 0, prevCacheMisses = 0;
  std::uint64_t prevStalls = 0, prevBytes = 0;
  std::size_t prevCompleted = 0, prevHour = 0;
  const auto hourOfTick = [&](std::uint64_t t) {
    const double frac = static_cast<double>(t) * mix.config.tickSeconds /
                        mix.config.daySeconds;
    return std::min<std::size_t>(23,
                                 static_cast<std::size_t>(frac * 24.0));
  };

  std::vector<char> degrWasActive(cfg.degradations.size(), 0);
  for (std::uint64_t t = 0; t < maxTicks; ++t) {
    // Degradation drills: apply/lift whichever levers cross their window
    // edge this tick, and collect the levers that shape this tick's joins.
    double powerFactor = 1.0;
    double forcedFaultFraction = 0.0;
    for (std::size_t d = 0; d < cfg.degradations.size(); ++d) {
      const Degradation& deg = cfg.degradations[d];
      const bool on =
          t >= deg.startTick && (deg.endTick == 0 || t < deg.endTick);
      if (on != static_cast<bool>(degrWasActive[d])) {
        degrWasActive[d] = on ? 1 : 0;
        switch (deg.kind) {
          case Degradation::Kind::kCacheSqueeze:
            // Clamp to >= 1: a squeeze means "tiny", never "unbounded"
            // (a budget of 0 disables eviction entirely).
            cache.setByteBudget(
                on ? std::max<std::size_t>(
                         1, static_cast<std::size_t>(
                                static_cast<double>(cfg.cacheByteBudget) *
                                deg.magnitude))
                   : cfg.cacheByteBudget);
            break;
          case Degradation::Kind::kServiceBudgetSqueeze:
            sched.setServiceBudget(on ? static_cast<std::size_t>(deg.magnitude)
                                      : cfg.serviceBudgetPerTick);
            break;
          default: break;  // join-time levers, handled below
        }
      }
      if (on && deg.kind == Degradation::Kind::kPowerRegression) {
        powerFactor *= deg.magnitude;
      }
      if (on && deg.kind == Degradation::Kind::kFaultRateStep) {
        forcedFaultFraction = std::max(forcedFaultFraction, deg.magnitude);
      }
    }

    // Flight-recorder generation rotation + this tick's media stamp.
    if (flight) {
      flight->onTick(t);
      flight->recorder()->setMediaTime(static_cast<double>(t) *
                                       mix.config.tickSeconds);
    }

    // Arrivals scheduled for this tick.
    while (nextPlan < mix.sessions.size() &&
           mix.sessions[nextPlan].arrivalTick == t) {
      const SessionPlan& plan = mix.sessions[nextPlan];
      const DeviceClass& dc = classes[plan.deviceClass];
      // Per-session annotation resolution: this is the cache's hot path
      // (the stream cache only pays it once per stream group, but every
      // CLIENT joining resolves its tenant's track).
      const core::CachedTrackPtr track = server.annotationFor(
          profiles[plan.contentProfile].name, mix.tenants[plan.tenant]);
      stream::FleetSessionConfig fleet;
      fleet.clipName = profiles[plan.contentProfile].name;
      fleet.caps = classCaps[plan.deviceClass];
      fleet.tenantCfg = mix.tenants[plan.tenant];
      const double rate = dc.meanBitsPerSec * plan.bandwidthScale;
      fleet.bandwidth =
          dc.periodicDips
              ? stream::BandwidthTrace::periodicDip(
                    rate, rate * dc.dipFraction, dc.dipPeriodSeconds,
                    dc.dipSeconds)
              : stream::BandwidthTrace::constant(rate);
      fleet.startupBufferSeconds = dc.startupBufferSeconds;
      fleet.bufferCapacitySeconds = dc.bufferCapacitySeconds;
      fleet.powerWeight = cellSavedWatts(plan, track) * powerFactor;
      const std::uint64_t id = sched.join(fleet);
      planOf.push_back(static_cast<std::uint32_t>(nextPlan));
      if (plan.leaveAfterTicks != 0) {
        leavesAt.emplace(t + plan.leaveAfterTicks, id);
      }
      std::uint64_t faultSeed = plan.faultSeed;
      if (cfg.faultInjection && faultSeed == 0 &&
          forcedFaultFraction > 0.0) {
        // Fault-rate-step drill: a deterministic per-session draw forces
        // extra arrivals into the fault arm.
        const std::uint64_t draw =
            splitmix64(mix.config.seed ^ (id * 0x9E3779B97F4A7C15ULL));
        if (static_cast<double>(draw >> 11) * 0x1.0p-53 <
            forcedFaultFraction) {
          faultSeed = draw | 1;  // nonzero by construction
        }
      }
      if (cfg.faultInjection && faultSeed != 0) {
        faultPending.push_back(
            {id, static_cast<std::uint32_t>(nextPlan), faultSeed});
      }
      ++nextPlan;
    }

    // Departures scheduled for this tick (no-op if already terminal).
    for (auto [it, end] = leavesAt.equal_range(t); it != end; ++it) {
      (void)sched.leave(it->second);
    }
    leavesAt.erase(t);

    sched.tick();

    // Fault arm: sessions run their injected decode as they terminate
    // (the injectors are live DURING the soak, not a post-pass).
    if (!faultPending.empty()) {
      std::size_t kept = 0;
      for (const LiveSession& live : faultPending) {
        const stream::SessionReport r = sched.report(live.id);
        if (r.phase == stream::SessionPhase::kCompleted ||
            r.phase == stream::SessionPhase::kLeft) {
          runFaultArm(live.plan, live.faultSeed);
        } else {
          faultPending[kept++] = live;
        }
      }
      faultPending.resize(kept);
    }

    // Diurnal roll-up: per-tick deltas attributed to the tick's hour (the
    // drain past the day's end folds into hour 23).
    const stream::FleetStats fs = sched.stats();
    const core::TrackCacheStats cs = cache.stats();
    const std::size_t h = hourOfTick(t);
    SoakHourBucket& bucket = report.hours[h];
    bucket.cacheHits += cs.hits - prevCacheHits;
    bucket.cacheMisses += cs.misses - prevCacheMisses;
    bucket.stallEvents += fs.stallEvents - prevStalls;
    bucket.bytesDelivered += fs.bytesDelivered - prevBytes;
    bucket.completions += fs.sessionsCompleted - prevCompleted;
    prevCacheHits = cs.hits;
    prevCacheMisses = cs.misses;
    prevStalls = fs.stallEvents;
    prevBytes = fs.bytesDelivered;
    prevCompleted = fs.sessionsCompleted;
    // Trace context for the flight recorder: a few fleet counters per tick
    // so an anomaly capture shows the shape of the minutes around it.
    if (flight) {
      telemetry::TraceRecorder* rec = flight->recorder();
      rec->counter("active_sessions", "fleet",
                   static_cast<double>(fs.activeSessions));
      rec->counter("stalls_total", "fleet",
                   static_cast<double>(fs.stallEvents));
      rec->counter("cache_hits_total", "cache",
                   static_cast<double>(cs.hits));
      rec->counter("cache_misses_total", "cache",
                   static_cast<double>(cs.misses));
    }
    if (h != prevHour) {
      report.hours[prevHour].activeAtEnd = fs.activeSessions;
      if (monitor) {
        // Hour-boundary margin samples: the --health plot's time series.
        for (const telemetry::HealthRuleStatus& rs : monitor->ruleStatuses()) {
          report.healthSamples.push_back(
              {t, h, rs.rule.name,
               telemetry::sloRuleStateName(rs.status.state),
               rs.status.fastValue, rs.status.margin});
        }
      }
      prevHour = h;
    }

    if (nextPlan == mix.sessions.size() && sched.allSessionsTerminal()) {
      report.ticks = t + 1;
      break;
    }
    report.ticks = t + 1;
  }
  for (const LiveSession& live : faultPending) {
    runFaultArm(live.plan, live.faultSeed);
  }
  report.hours[prevHour].activeAtEnd = sched.stats().activeSessions;

  // --- Health verdicts ----------------------------------------------------
  if (monitor) {
    const std::uint64_t lastTick = report.ticks > 0 ? report.ticks - 1 : 0;
    for (const telemetry::HealthEvent& ev : monitor->events()) {
      report.healthEvents.push_back({ev.rule, ev.fired, ev.tick,
                                     hourOfTick(ev.tick), ev.fastValue,
                                     ev.slowValue, ev.limit});
    }
    for (const telemetry::HealthRuleStatus& rs : monitor->ruleStatuses()) {
      report.healthRules.push_back(
          {rs.rule.name, telemetry::sloRuleStateName(rs.status.state),
           rs.status.fireCount, rs.status.fastValue, rs.status.margin});
      report.healthSamples.push_back(
          {lastTick, hourOfTick(lastTick), rs.rule.name,
           telemetry::sloRuleStateName(rs.status.state), rs.status.fastValue,
           rs.status.margin});
    }
  }
  if (flight) {
    report.flightTriggers = flight->triggerCount();
    report.flightCaptureCount = flight->captures().size();
    report.flightCaptures = flight->captures();
  }

  // --- Snapshot serving-stack accounting BEFORE the power sweep (whose
  // annotationFor calls would otherwise pollute the hit counters). ---------
  {
    const stream::FleetStats fs = sched.stats();
    report.sessionsJoined = fs.sessionsJoined;
    report.sessionsCompleted = fs.sessionsCompleted;
    report.sessionsLeft = fs.sessionsLeft;
    report.peakConcurrentSessions = fs.peakConcurrentSessions;
    report.uniqueStreams = fs.uniqueStreams;
    report.stallEvents = fs.stallEvents;
    report.stallSeconds = fs.stallSeconds;
    report.bytesDelivered = fs.bytesDelivered;
    const core::TrackCacheStats cs = cache.stats();
    report.cacheHits = cs.hits;
    report.cacheMisses = cs.misses;
    report.cacheFills = cs.fills;
    report.cacheEvictions = cs.evictions;
    report.cacheHitRate = cs.hitRate();
    report.engineSecondsTotal = cs.fillSeconds;
  }

  // --- Per-session aggregation + the power roll-up ------------------------
  // cellWatts was filled at each cell's first arrival; the lazy fill below
  // only covers cells no session reached (defensive, normally dead).
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, SoakCell>
      cells;
  std::vector<double> startups;
  std::vector<double> rebuffers;
  double fullJoules = 0.0;
  double servedSeconds = 0.0;
  for (std::uint64_t id = 1; id < planOf.size(); ++id) {
    const SessionPlan& plan = mix.sessions[planOf[id]];
    const stream::SessionReport r = sched.report(id);
    const auto key =
        std::make_tuple(plan.tenant, plan.deviceClass, plan.contentProfile);
    auto wattsIt = cellWatts.find(key);
    if (wattsIt == cellWatts.end()) {
      const core::CachedTrackPtr track = server.annotationFor(
          profiles[plan.contentProfile].name, mix.tenants[plan.tenant]);
      const DeviceClass& dc = classes[plan.deviceClass];
      const double saved =
          meanSavedWatts(track->track, dc.qualityIndex,
                         deviceModels[plan.deviceClass], dc.minBacklightLevel);
      const double full =
          deviceModels[plan.deviceClass].backlightPowerWatts(255);
      wattsIt = cellWatts.emplace(key, std::make_pair(saved, full)).first;
    }
    const double joules = wattsIt->second.first * r.playedSeconds;
    SoakCell& cell = cells[key];
    cell.tenant = plan.tenant;
    cell.deviceClass = plan.deviceClass;
    cell.contentProfile = plan.contentProfile;
    ++cell.sessions;
    const bool started = r.playedSeconds > 0.0;
    if (started) {
      ++cell.started;
      startups.push_back(r.startupDelaySeconds);
      rebuffers.push_back(r.stallSeconds);
    }
    if (r.phase == stream::SessionPhase::kCompleted) ++cell.completed;
    cell.servedSeconds += r.playedSeconds;
    cell.joulesSaved += joules;
    cell.startupSecondsSum += started ? r.startupDelaySeconds : 0.0;
    cell.stallSecondsSum += r.stallSeconds;
    cell.streamBytesSum += static_cast<double>(r.streamBytes);
    report.joulesSaved += joules;
    fullJoules += wattsIt->second.second * r.playedSeconds;
    servedSeconds += r.playedSeconds;
    const std::size_t arrivalHour = hourOfTick(plan.arrivalTick);
    report.hours[arrivalHour].joulesSaved += joules;
    report.hours[arrivalHour].servedSeconds += r.playedSeconds;
  }
  report.cells.reserve(cells.size());
  for (auto& [key, cell] : cells) report.cells.push_back(cell);

  report.servedHours = servedSeconds / 3600.0;
  report.wattsSavedPerMillionSessions =
      servedSeconds > 0.0 ? report.joulesSaved / servedSeconds * 1e6 : 0.0;
  report.backlightSavingsFraction =
      fullJoules > 0.0 ? report.joulesSaved / fullJoules : 0.0;
  std::sort(startups.begin(), startups.end());
  std::sort(rebuffers.begin(), rebuffers.end());
  report.startupP50Seconds = percentile(startups, 0.50);
  report.startupP99Seconds = percentile(startups, 0.99);
  report.rebufferP50Seconds = percentile(rebuffers, 0.50);
  report.rebufferP99Seconds = percentile(rebuffers, 0.99);
  report.enginePassesPerServedHour =
      report.servedHours > 0.0
          ? static_cast<double>(report.cacheFills) / report.servedHours
          : 0.0;
  report.engineSecondsPerServedHour =
      report.servedHours > 0.0 ? report.engineSecondsTotal / report.servedHours
                               : 0.0;
  report.soakWallSeconds = nowWall() - wallStart;
  return report;
}

std::string deterministicJson(const FleetSoakReport& r) {
  std::string out = "{\n";
  appendKv(out, "seed", r.seed, false);
  appendKv(out, "sessions_planned", static_cast<std::uint64_t>(r.sessionsPlanned), false);
  appendKv(out, "sessions_joined", static_cast<std::uint64_t>(r.sessionsJoined), false);
  appendKv(out, "sessions_completed", static_cast<std::uint64_t>(r.sessionsCompleted), false);
  appendKv(out, "sessions_left", static_cast<std::uint64_t>(r.sessionsLeft), false);
  appendKv(out, "peak_concurrent_sessions", static_cast<std::uint64_t>(r.peakConcurrentSessions), false);
  appendKv(out, "ticks", r.ticks, false);
  appendKv(out, "tenants", static_cast<std::uint64_t>(r.tenants), false);
  appendKv(out, "device_classes", static_cast<std::uint64_t>(r.deviceClasses), false);
  appendKv(out, "content_profiles", static_cast<std::uint64_t>(r.contentProfiles), false);
  appendKv(out, "unique_streams", static_cast<std::uint64_t>(r.uniqueStreams), false);
  appendKv(out, "cache_hits", r.cacheHits, false);
  appendKv(out, "cache_misses", r.cacheMisses, false);
  appendKv(out, "cache_fills", r.cacheFills, false);
  appendKv(out, "cache_evictions", r.cacheEvictions, false);
  appendKv(out, "cache_hit_rate", r.cacheHitRate, false);
  appendKv(out, "served_hours", r.servedHours, false);
  appendKv(out, "joules_saved", r.joulesSaved, false);
  appendKv(out, "watts_saved_per_million_sessions", r.wattsSavedPerMillionSessions, false);
  appendKv(out, "backlight_savings_fraction", r.backlightSavingsFraction, false);
  appendKv(out, "startup_p50_seconds", r.startupP50Seconds, false);
  appendKv(out, "startup_p99_seconds", r.startupP99Seconds, false);
  appendKv(out, "rebuffer_p50_seconds", r.rebufferP50Seconds, false);
  appendKv(out, "rebuffer_p99_seconds", r.rebufferP99Seconds, false);
  appendKv(out, "stall_events", r.stallEvents, false);
  appendKv(out, "stall_seconds", r.stallSeconds, false);
  appendKv(out, "bytes_delivered", r.bytesDelivered, false);
  appendKv(out, "engine_passes_per_served_hour", r.enginePassesPerServedHour, false);
  appendKv(out, "fault_sessions", static_cast<std::uint64_t>(r.faultSessions), false);
  appendKv(out, "fault_mutations_applied", static_cast<std::uint64_t>(r.faultMutationsApplied), false);
  appendKv(out, "fault_decode_ok", static_cast<std::uint64_t>(r.faultDecodeOk), false);
  appendKv(out, "fault_fallbacks", static_cast<std::uint64_t>(r.faultFallbacks), false);
  appendKv(out, "fault_undecodable", static_cast<std::uint64_t>(r.faultUndecodable), false);
  appendKv(out, "fault_throws", static_cast<std::uint64_t>(r.faultThrows), false);
  out += "  \"hours\": [\n";
  for (std::size_t h = 0; h < r.hours.size(); ++h) {
    const SoakHourBucket& b = r.hours[h];
    out += "    {\"hour\": " + std::to_string(h) +
           ", \"arrivals\": " + std::to_string(b.arrivals) +
           ", \"completions\": " + std::to_string(b.completions) +
           ", \"active_at_end\": " + std::to_string(b.activeAtEnd) +
           ", \"cache_hits\": " + std::to_string(b.cacheHits) +
           ", \"cache_misses\": " + std::to_string(b.cacheMisses) +
           ", \"hit_rate\": " + num(b.hitRate()) +
           ", \"stall_events\": " + std::to_string(b.stallEvents) +
           ", \"bytes_delivered\": " + std::to_string(b.bytesDelivered) +
           ", \"joules_saved\": " + num(b.joulesSaved) +
           ", \"served_seconds\": " + num(b.servedSeconds) + "}";
    out += h + 1 < r.hours.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const SoakCell& c = r.cells[i];
    out += "    {\"tenant\": " + std::to_string(c.tenant) +
           ", \"device_class\": " + std::to_string(c.deviceClass) +
           ", \"content_profile\": " + std::to_string(c.contentProfile) +
           ", \"sessions\": " + std::to_string(c.sessions) +
           ", \"started\": " + std::to_string(c.started) +
           ", \"completed\": " + std::to_string(c.completed) +
           ", \"served_seconds\": " + num(c.servedSeconds) +
           ", \"joules_saved\": " + num(c.joulesSaved) +
           ", \"startup_seconds_sum\": " + num(c.startupSecondsSum) +
           ", \"stall_seconds_sum\": " + num(c.stallSecondsSum) +
           ", \"stream_bytes_sum\": " + num(c.streamBytesSum) + "}";
    out += i + 1 < r.cells.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"health_events\": [";
  for (std::size_t i = 0; i < r.healthEvents.size(); ++i) {
    const SoakHealthEvent& e = r.healthEvents[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": \"" + telemetry::escapeJson(e.rule) +
           "\", \"fired\": " + (e.fired ? "true" : "false") +
           ", \"tick\": " + std::to_string(e.tick) +
           ", \"hour\": " + std::to_string(e.hour) +
           ", \"fast\": " + num(e.fastValue) +
           ", \"slow\": " + num(e.slowValue) +
           ", \"limit\": " + num(e.limit) + "}";
  }
  out += r.healthEvents.empty() ? "],\n" : "\n  ],\n";
  out += "  \"health_rules\": [";
  for (std::size_t i = 0; i < r.healthRules.size(); ++i) {
    const SoakHealthRule& h = r.healthRules[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + telemetry::escapeJson(h.name) +
           "\", \"state\": \"" + h.state +
           "\", \"fire_count\": " + std::to_string(h.fireCount) +
           ", \"fast\": " + num(h.fastValue) +
           ", \"margin\": " + num(h.margin) + "}";
  }
  out += r.healthRules.empty() ? "],\n" : "\n  ],\n";
  out += "  \"health_samples\": [";
  for (std::size_t i = 0; i < r.healthSamples.size(); ++i) {
    const SoakHealthSample& s = r.healthSamples[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"tick\": " + std::to_string(s.tick) +
           ", \"hour\": " + std::to_string(s.hour) +
           ", \"rule\": \"" + telemetry::escapeJson(s.rule) +
           "\", \"state\": \"" + s.state +
           "\", \"fast\": " + num(s.fastValue) +
           ", \"margin\": " + num(s.margin) + "}";
  }
  out += r.healthSamples.empty() ? "],\n" : "\n  ],\n";
  appendKv(out, "flight_triggers", r.flightTriggers, false);
  appendKv(out, "flight_capture_count",
           static_cast<std::uint64_t>(r.flightCaptureCount), true);
  out += "}";
  return out;
}

std::string toJson(const FleetSoakReport& r, const std::string& extra) {
  std::string det = deterministicJson(r);
  det.pop_back();  // strip the closing brace; reopen below
  std::string out = std::move(det);
  out += ",\n";
  appendKv(out, "engine_seconds_total", r.engineSecondsTotal, false);
  appendKv(out, "engine_seconds_per_served_hour", r.engineSecondsPerServedHour,
           false);
  appendKv(out, "ingest_seconds", r.ingestSeconds, false);
  appendKv(out, "soak_wall_seconds", r.soakWallSeconds, extra.empty());
  if (!extra.empty()) out += extra;
  out += "}\n";
  return out;
}

}  // namespace anno::soak
