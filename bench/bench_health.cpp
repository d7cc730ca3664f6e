// Health-monitor overhead bench: what the live-health layer costs the
// serving stack.
//
// Two numbers gate the feature (DESIGN.md sec. 16): the micro cost of one
// HealthMonitor::observe() tick against the full default rule set, and the
// end-to-end soak overhead with health + flight recorder ON vs OFF --
// which must stay under 2% (min-of-3 wall clock on both arms).  A disabled
// health arm must also leave the deterministic fleet report untouched:
// observation may never change behavior.  Emits BENCH_health.json.
//
//   bench_health [--sessions N] [--daySeconds S] [--iters N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "soak/driver.h"
#include "soak/traffic_mix.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"

namespace anno {
namespace {

using Clock = std::chrono::steady_clock;

double minOf3Soak(const soak::SoakConfig& cfg, soak::FleetSoakReport* out) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    soak::FleetSoakReport r = soak::runSoak(cfg);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (wall < best) {
      best = wall;
      if (out != nullptr) *out = std::move(r);
    }
  }
  return best;
}

int run(std::size_t sessions, double daySeconds, std::size_t iters) {
  bench::printHeader("Live-health overhead (observe tick + soak on/off)");

  // --- micro: one observe() against the full default rule set ------------
  telemetry::Registry registry;
  telemetry::Counter& stalls =
      registry.counter("anno_fleet_stalls_total", {}, "bench");
  telemetry::Counter& ticks =
      registry.counter("anno_fleet_session_ticks_total", {}, "bench");
  telemetry::Counter& hits =
      registry.counter("anno_track_cache_hits_total", {}, "bench");
  (void)registry.counter("anno_track_cache_misses_total", {}, "bench");
  (void)registry.counter("anno_soak_fault_sessions_total", {}, "bench");
  (void)registry.counter("anno_fleet_sessions_completed_total", {}, "bench");
  (void)registry.counter("anno_fleet_sessions_left_total", {}, "bench");
  telemetry::Histogram& startup = registry.histogram(
      "anno_fleet_startup_seconds",
      {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}, {}, "bench");
  (void)registry.gauge("anno_fleet_sessions_playing", {}, "bench");
  (void)registry.gauge("anno_fleet_playing_power_milliwatts", {}, "bench");

  soak::TrafficMixConfig mix;
  const soak::HealthOptions opts =
      soak::defaultHealthOptions(mix, 400000.0);
  telemetry::HealthMonitor monitor(opts.config, &registry);
  // Warm the windows so the steady state (full rings, all rules live) is
  // what gets timed.
  for (int i = 0; i < 512; ++i) monitor.observe();
  const Clock::time_point microStart = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    stalls.inc(1);
    ticks.inc(40);
    hits.inc(7);
    startup.observe(0.5);
    monitor.observe();
  }
  const double microWall =
      std::chrono::duration<double>(Clock::now() - microStart).count();
  const double nsPerObserve = microWall / static_cast<double>(iters) * 1e9;

  // --- macro: the same soak with the health arm off vs on ----------------
  soak::SoakConfig off;
  off.mix.sessions = sessions;
  off.mix.daySeconds = daySeconds;
  soak::FleetSoakReport offReport;
  const double offWall = minOf3Soak(off, &offReport);

  soak::SoakConfig on = off;
  on.health = soak::defaultHealthOptions(
      on.mix, offReport.wattsSavedPerMillionSessions);
  soak::FleetSoakReport onReport;
  const double onWall = minOf3Soak(on, &onReport);

  const double overhead = (onWall - offWall) / offWall;

  bench::Table table({"metric", "value"});
  table.addRow({"observe() ns (default rules)", bench::fmt(nsPerObserve, 1)});
  table.addRow({"soak wall s (health off)", bench::fmt(offWall, 3)});
  table.addRow({"soak wall s (health on)", bench::fmt(onWall, 3)});
  table.addRow({"overhead %", bench::pct(overhead, 2)});
  table.addRow({"ticks observed", std::to_string(onReport.ticks)});
  table.addRow({"health events (clean mix)",
                std::to_string(onReport.healthEvents.size())});
  table.print();

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("SELF-CHECK FAILED: %s\n", what);
      ++failures;
    }
  };
  check(overhead < 0.02, "health + flight recorder overhead under 2%");
  check(nsPerObserve < 20000.0, "observe() under 20us");
  // Observation must not change behavior: every deterministic serving
  // number the off-run reports must survive the health arm unchanged.
  check(onReport.cacheHits == offReport.cacheHits &&
            onReport.cacheMisses == offReport.cacheMisses &&
            onReport.joulesSaved == offReport.joulesSaved &&
            onReport.stallEvents == offReport.stallEvents &&
            onReport.bytesDelivered == offReport.bytesDelivered,
        "health arm leaves the serving numbers untouched");
  check(!onReport.healthRules.empty(), "rules evaluated");
  check(onReport.healthEvents.empty(), "clean mix fires nothing");

  bench::JsonReport()
      .field("sessions", sessions).field("day_seconds", daySeconds)
      .field("observe_ns", nsPerObserve)
      .field("soak_wall_seconds_off", offWall)
      .field("soak_wall_seconds_on", onWall)
      .field("overhead_fraction", overhead)
      .field("rules", onReport.healthRules.size())
      .field("pass", failures == 0)
      .write("BENCH_health.json");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace anno

int main(int argc, char** argv) {
  std::size_t sessions = 4000;
  double daySeconds = 60.0;
  std::size_t iters = 200000;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--daySeconds") == 0) {
      daySeconds = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }
  return anno::run(sessions, daySeconds, iters);
}
