// fleet_health: live-health acceptance drill for the rolling SLO engine and
// the anomaly-triggered flight recorder (DESIGN.md §16).
//
// Four deterministic runs of one diurnal traffic mix:
//
//   1. Calibration: the mix runs clean with the health arm off, yielding the
//      watts-saved-per-million-sessions expectation the band rule pins.
//   2. Clean: the same mix with every SLO rule armed.  A healthy fleet must
//      fire NOTHING -- zero events, zero flight captures.
//   3. Degraded: the same mix with four mid-run degradations injected
//      (cache-budget squeeze, service-budget squeeze, fault-rate step,
//      power regression).  The monitor must fire EXACTLY the expected rules,
//      each within its degradation's tick window, and the flight recorder
//      must freeze a Perfetto-loadable capture around each firing.
//   4. Degraded twin: run 3 repeated; the deterministic report core
//      (including every health event tick) must be byte-identical.
//
// Writes FLIGHT_RECORDER.json (the first anomaly capture, Chrome trace
// format) and HEALTH_events.json (the degraded run's event log + verdicts).
// Exits nonzero if any check fails.
//
// Run: ./build/tools/fleet_health [--sessions N] [--tenants N] [--seed X]
//        [--day-seconds S] [--policy rr|deadline] [--delivery-threads N]
//        [--out-trace FILE] [--out-events FILE]
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "soak/driver.h"
#include "soak/traffic_mix.h"
#include "telemetry/trace.h"

using namespace anno;

namespace {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

void add(std::vector<Check>& checks, std::string name, bool pass,
         std::string detail) {
  std::printf("[%s] %-32s %s\n", pass ? "ok" : "FAIL", name.c_str(),
              detail.c_str());
  checks.push_back({std::move(name), pass, std::move(detail)});
}

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Structural JSON scan: balanced braces/brackets outside string literals,
/// nothing trailing.  Not a parser -- a seatbelt for the exported trace.
bool balancedJson(const std::string& s) {
  long depth = 0;
  bool inString = false;
  bool escaped = false;
  bool sawAny = false;
  for (const char c : s) {
    if (inString) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    switch (c) {
      case '"': inString = true; break;
      case '{': case '[': ++depth; sawAny = true; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return sawAny && depth == 0 && !inString;
}

/// The first FIRED event per rule, or none.
std::map<std::string, std::uint64_t> firstFireTicks(
    const std::vector<soak::SoakHealthEvent>& events) {
  std::map<std::string, std::uint64_t> out;
  for (const soak::SoakHealthEvent& e : events) {
    if (e.fired && out.find(e.rule) == out.end()) out[e.rule] = e.tick;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  soak::SoakConfig cfg;
  cfg.mix.sessions = 8000;
  cfg.mix.tenantCount = 6;
  cfg.mix.daySeconds = 120.0;
  std::string tracePath = "FLIGHT_RECORDER.json";
  std::string eventsPath = "HEALTH_events.json";
  for (int i = 1; i < argc; ++i) {
    const auto intArg = [&](const char* name, auto& slot) {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        slot = static_cast<std::decay_t<decltype(slot)>>(
            std::strtoull(argv[++i], nullptr, 0));
        return true;
      }
      return false;
    };
    if (intArg("--sessions", cfg.mix.sessions)) continue;
    if (intArg("--tenants", cfg.mix.tenantCount)) continue;
    if (intArg("--seed", cfg.mix.seed)) continue;
    if (intArg("--delivery-threads", cfg.deliveryThreads)) continue;
    if (std::strcmp(argv[i], "--day-seconds") == 0 && i + 1 < argc) {
      cfg.mix.daySeconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "rr") {
        cfg.policy = stream::SchedulePolicy::kRoundRobin;
      } else if (value == "deadline") {
        cfg.policy = stream::SchedulePolicy::kDeadline;
      } else {
        std::fprintf(stderr, "fleet_health: unknown policy '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out-trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--out-events") == 0 && i + 1 < argc) {
      eventsPath = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: fleet_health [--sessions N] [--tenants N] [--seed X]\n"
          "         [--day-seconds S] [--policy rr|deadline]\n"
          "         [--delivery-threads N] [--out-trace FILE]"
          " [--out-events FILE]\n");
      return 2;
    }
  }

  std::vector<Check> checks;
  const double tickSeconds = cfg.mix.tickSeconds;
  const std::uint64_t hourTicks = std::max<std::uint64_t>(
      4, static_cast<std::uint64_t>(cfg.mix.daySeconds / 24.0 / tickSeconds));

  // 1. Calibration: clean run, health off -- pins the watts expectation.
  std::printf("calibration: %zu sessions, %zu tenants, day %.0fs...\n",
              cfg.mix.sessions, cfg.mix.tenantCount, cfg.mix.daySeconds);
  double expectedWatts = 0.0;
  try {
    const soak::FleetSoakReport base = soak::runSoak(cfg);
    expectedWatts = base.wattsSavedPerMillionSessions;
    std::printf("calibration: %.6g W/M-sessions, hit rate %.4f, "
                "%" PRIu64 " ticks\n",
                expectedWatts, base.cacheHitRate, base.ticks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_health: calibration crashed: %s\n", e.what());
    return 1;
  }
  add(checks, "calibration_watts_positive", expectedWatts > 0.0,
      fmt("%.6g W/M-sessions", expectedWatts));

  // 2. Clean run with every rule armed: a healthy fleet pages nobody.
  cfg.health = soak::defaultHealthOptions(cfg.mix, expectedWatts);
  soak::FleetSoakReport clean;
  try {
    clean = soak::runSoak(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_health: clean run crashed: %s\n", e.what());
    return 1;
  }
  add(checks, "clean_run_fires_nothing", clean.healthEvents.empty(),
      fmt("%zu health events (want 0)", clean.healthEvents.size()));
  add(checks, "clean_run_no_captures",
      clean.flightTriggers == 0 && clean.flightCaptureCount == 0,
      fmt("%" PRIu64 " triggers, %zu captures", clean.flightTriggers,
          clean.flightCaptureCount));
  add(checks, "clean_rules_evaluated", !clean.healthRules.empty(),
      fmt("%zu rules reported", clean.healthRules.size()));

  // 3. Degraded run: four drills, each owning a tick window.  Expected
  // firings per drill (windows allow detection latency: the fast window
  // must fill with bad ticks, plus the fault arm's completion lag).
  const std::uint64_t dayTicks =
      static_cast<std::uint64_t>(cfg.mix.daySeconds / tickSeconds);
  soak::SoakConfig degraded = cfg;
  const std::uint64_t cacheFrom = 6 * hourTicks, cacheTo = 9 * hourTicks;
  const std::uint64_t faultFrom = 12 * hourTicks, faultTo = 15 * hourTicks;
  const std::uint64_t powerFrom = 18 * hourTicks;
  degraded.degradations = {
      // The squeeze must be total: a partial squeeze evicts only SOME
      // entries, and which ones depends on the LRU order parallel ingest
      // seeded (nondeterministic across runs).  1e-7 of the default budget
      // drives every shard to its 1-byte floor, so every entry evicts and
      // every lookup in the window misses -- order-independent, and the
      // hit rate collapses far below the 85% SLO.
      {soak::Degradation::Kind::kCacheSqueeze, cacheFrom, cacheTo, 1e-7},
      {soak::Degradation::Kind::kFaultRateStep, faultFrom, faultTo, 0.60},
      {soak::Degradation::Kind::kPowerRegression, powerFrom, 0, 0.05},
  };
  struct Expectation {
    const char* rule;
    std::uint64_t from;  ///< degradation start
    std::uint64_t to;    ///< latest acceptable first firing
  };
  const std::vector<Expectation> expected = {
      {"cache_hit_rate", cacheFrom, cacheTo + 2 * hourTicks},
      {"fault_session_rate", faultFrom, faultTo + 6 * hourTicks},
      {"watts_saved_per_million_sessions", powerFrom,
       dayTicks + 12 * hourTicks},
  };

  std::printf("degraded: injecting %zu degradations...\n",
              degraded.degradations.size());
  soak::FleetSoakReport bad;
  try {
    bad = soak::runSoak(degraded);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_health: degraded run crashed: %s\n", e.what());
    return 1;
  }
  for (const soak::SoakHealthEvent& e : bad.healthEvents) {
    std::printf("  tick %6" PRIu64 " hour %2zu  %-7s %s (fast %.6g vs %.6g)\n",
                e.tick, e.hour, e.fired ? "FIRED" : "cleared", e.rule.c_str(),
                e.fastValue, e.limit);
  }

  // Exactly the expected rules fired, each inside its window.
  const std::map<std::string, std::uint64_t> fires =
      firstFireTicks(bad.healthEvents);
  for (const Expectation& want : expected) {
    const auto it = fires.find(want.rule);
    if (it == fires.end()) {
      add(checks, fmt("fires_%s", want.rule), false, "never fired");
      continue;
    }
    add(checks, fmt("fires_%s", want.rule),
        it->second >= want.from && it->second <= want.to,
        fmt("first fire at tick %" PRIu64 " (window [%" PRIu64 ", %" PRIu64
            "], hour %zu)",
            it->second, want.from, want.to,
            static_cast<std::size_t>(
                std::min<double>(23.0, static_cast<double>(it->second) *
                                           tickSeconds /
                                           cfg.mix.daySeconds * 24.0))));
  }
  {
    std::string unexpected;
    for (const auto& [rule, tick] : fires) {
      bool known = false;
      for (const Expectation& want : expected) known |= rule == want.rule;
      if (!known) unexpected += rule + " ";
    }
    add(checks, "no_unexpected_rules", unexpected.empty(),
        unexpected.empty() ? fmt("%zu rules fired, all expected",
                                 fires.size())
                           : "also fired: " + unexpected);
  }

  // Flight recorder: >= 1 capture, the firing marker inside, counter
  // context from the window before the anomaly, valid Chrome trace JSON.
  add(checks, "flight_captures", bad.flightCaptureCount >= 1,
      fmt("%zu captures, %" PRIu64 " triggers", bad.flightCaptureCount,
          bad.flightTriggers));
  std::string traceJson;
  if (!bad.flightCaptures.empty()) {
    const telemetry::FlightRecorder::Capture& cap = bad.flightCaptures.front();
    bool sawMarker = false;
    std::size_t contextCounters = 0;
    const double fireMedia =
        static_cast<double>(cap.trigger.tick) * tickSeconds;
    // The soak driver runs its flight recorder at the default config.
    const double rotateSeconds =
        static_cast<double>(telemetry::FlightRecorder::Config{}.rotateTicks) *
        tickSeconds;
    const double windowStart = fireMedia - 2.0 * rotateSeconds;
    for (const telemetry::TraceSnapshotEvent& ev : cap.snapshot.events) {
      if (ev.name == "slo_fired" && ev.strValue == cap.trigger.rule) {
        sawMarker = true;
      }
      if (ev.type == telemetry::TraceEventType::kCounter &&
          !std::isnan(ev.mediaSeconds) && ev.mediaSeconds >= windowStart &&
          ev.mediaSeconds <= fireMedia + tickSeconds) {
        ++contextCounters;
      }
    }
    add(checks, "capture_has_firing_marker", sawMarker,
        fmt("rule %s at tick %" PRIu64, cap.trigger.rule.c_str(),
            cap.trigger.tick));
    add(checks, "capture_has_context", contextCounters > 0,
        fmt("%zu counter samples within the recorder window",
            contextCounters));
    traceJson = telemetry::toChromeTraceJson(cap.snapshot);
    add(checks, "capture_valid_chrome_json",
        balancedJson(traceJson) &&
            traceJson.find("\"traceEvents\"") != std::string::npos &&
            traceJson.find("slo_fired") != std::string::npos,
        fmt("%zu bytes, %zu events", traceJson.size(),
            cap.snapshot.events.size()));
  } else {
    add(checks, "capture_has_firing_marker", false, "no capture");
    add(checks, "capture_has_context", false, "no capture");
    add(checks, "capture_valid_chrome_json", false, "no capture");
  }

  // 4. Determinism: the degraded run, byte-for-byte, twice.
  {
    std::printf("determinism: re-running the degraded config...\n");
    const soak::FleetSoakReport twin = soak::runSoak(degraded);
    const std::string a = soak::deterministicJson(bad);
    const std::string b = soak::deterministicJson(twin);
    add(checks, "deterministic_degraded_run", a == b,
        a == b ? fmt("deterministic core identical (%zu bytes)", a.size())
               : "same config produced a different report");
  }

  // Artifacts: the anomaly trace + the event log.
  if (!traceJson.empty()) {
    std::ofstream out(tracePath, std::ios::binary);
    out << traceJson;
    out.close();
    if (!out) {
      std::fprintf(stderr, "fleet_health: cannot write %s\n",
                   tracePath.c_str());
      return 2;
    }
    std::printf("wrote %s\n", tracePath.c_str());
  }
  {
    std::string json = "{\n  \"expected_watts_per_million_sessions\": " +
                       fmt("%.10g", expectedWatts) + ",\n";
    json += "  \"clean_events\": " + std::to_string(clean.healthEvents.size()) +
            ",\n  \"degraded\": ";
    json += soak::deterministicJson(bad);
    bool allPass = true;
    for (const Check& c : checks) allPass = allPass && c.pass;
    json += ",\n  \"self_checks\": [\n";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      json += "    {\"name\": \"" + checks[i].name + "\", \"pass\": " +
              (checks[i].pass ? "true" : "false") + "}";
      json += i + 1 < checks.size() ? ",\n" : "\n";
    }
    json += "  ],\n  \"pass\": ";
    json += allPass ? "true" : "false";
    json += "\n}\n";
    std::ofstream out(eventsPath, std::ios::binary);
    out << json;
    out.close();
    if (!out) {
      std::fprintf(stderr, "fleet_health: cannot write %s\n",
                   eventsPath.c_str());
      return 2;
    }
    std::printf("wrote %s\n", eventsPath.c_str());
  }

  bool allPass = true;
  for (const Check& c : checks) allPass = allPass && c.pass;
  std::printf("fleet_health: %s\n",
              allPass ? "ALL CHECKS PASSED" : "FAILED");
  return allPass ? 0 : 1;
}
