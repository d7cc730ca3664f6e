// fleet_soak: trace-driven fleet soak harness + capacity-model validation.
//
// Composes everything PRs 1-8 built -- engine, TrackCache, MediaServer,
// SessionScheduler, fault injectors, power models -- into one sustained
// diurnal load and gates on the fleet-level questions:
//
//   1. Smoke: the canned Fig. 1 workload (server -> proxy -> client -> loss,
//      fault corpora live) runs end to end.
//   2. Soak: a deterministic traffic mix (device classes x content profiles
//      x tenant configs on a diurnal arrival curve, >= 50k sessions and
//      >= 8 tenants by default, ~2% of sessions fault-injected and decoded
//      through a real client) replays against the real serving stack.
//   3. Determinism: the identical config runs AGAIN and the deterministic
//      core of both reports must be byte-identical.
//   4. Capacity: a CapacityModel fit from the soak predicts a held-out mix
//      (different seed); a fresh measured run must agree within tolerance
//      on every deterministic metric.
//
// Writes FLEET_SOAK.json (fleet report + capacity-validation block) and
// exits nonzero if any self-check fails.
//
// Run: ./build/tools/fleet_soak [--sessions N] [--tenants N] [--seed X]
//        [--day-seconds S] [--policy rr|deadline] [--budget N]
//        [--delivery-threads N] [--holdout-sessions N] [--tolerance F]
//        [--out FILE] [--allow-small] [--skip-smoke]
#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "soak/capacity.h"
#include "soak/driver.h"
#include "soak/harness.h"
#include "soak/traffic_mix.h"

using namespace anno;

namespace {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

void add(std::vector<Check>& checks, std::string name, bool pass,
         std::string detail) {
  std::printf("[%s] %-28s %s\n", pass ? "ok" : "FAIL", name.c_str(),
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

}  // namespace

int main(int argc, char** argv) {
  soak::SoakConfig cfg;
  std::size_t holdoutSessions = 0;  // 0 = sessions / 4
  double tolerance = 0.10;
  std::string outPath = "FLEET_SOAK.json";
  bool allowSmall = false;
  bool skipSmoke = false;
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
    if (intArg("--budget", cfg.serviceBudgetPerTick)) continue;
    if (intArg("--delivery-threads", cfg.deliveryThreads)) continue;
    if (intArg("--holdout-sessions", holdoutSessions)) continue;
    if (std::strcmp(argv[i], "--day-seconds") == 0 && i + 1 < argc) {
      cfg.mix.daySeconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "rr") {
        cfg.policy = stream::SchedulePolicy::kRoundRobin;
      } else if (value == "deadline") {
        cfg.policy = stream::SchedulePolicy::kDeadline;
      } else {
        std::fprintf(stderr, "fleet_soak: unknown policy '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--allow-small") == 0) {
      allowSmall = true;
    } else if (std::strcmp(argv[i], "--skip-smoke") == 0) {
      skipSmoke = true;
    } else {
      std::fprintf(
          stderr,
          "usage: fleet_soak [--sessions N] [--tenants N] [--seed X]\n"
          "         [--day-seconds S] [--policy rr|deadline] [--budget N]\n"
          "         [--delivery-threads N] [--holdout-sessions N]\n"
          "         [--tolerance F] [--out FILE] [--allow-small]"
          " [--skip-smoke]\n");
      return 2;
    }
  }

  std::vector<Check> checks;

  // 1. Smoke: the full canned workload, every arm on.  A throw here means
  // the serving stack is broken before we even reach scale.
  if (!skipSmoke) {
    bool smokeOk = true;
    std::string detail = "server->proxy->client->loss, fault corpora live";
    try {
      soak::runCannedWorkload({});
    } catch (const std::exception& e) {
      smokeOk = false;
      detail = fmt("threw: %s", e.what());
    }
    add(checks, "smoke_workload", smokeOk, detail);
  }

  // 2. The soak itself.
  std::printf("soak: %zu sessions, %zu tenants, seed 0x%" PRIx64
              ", day %.0fs...\n",
              cfg.mix.sessions, cfg.mix.tenantCount, cfg.mix.seed,
              cfg.mix.daySeconds);
  soak::FleetSoakReport report;
  try {
    report = soak::runSoak(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_soak: soak crashed: %s\n", e.what());
    return 1;
  }
  std::printf(
      "soak: %zu joined, %zu completed, %zu left, peak %zu concurrent, "
      "%" PRIu64 " ticks, %.1fs wall\n",
      report.sessionsJoined, report.sessionsCompleted, report.sessionsLeft,
      report.peakConcurrentSessions, report.ticks, report.soakWallSeconds);
  std::printf(
      "soak: hit rate %.4f, %.1f served-hours, %.3g W saved/M-sessions, "
      "startup p50/p99 %.3f/%.3f s, rebuffer p50/p99 %.3f/%.3f s\n",
      report.cacheHitRate, report.servedHours,
      report.wattsSavedPerMillionSessions, report.startupP50Seconds,
      report.startupP99Seconds, report.rebufferP50Seconds,
      report.rebufferP99Seconds);

  add(checks, "scale",
      allowSmall ||
          (cfg.mix.sessions >= 50'000 && cfg.mix.tenantCount >= 8),
      fmt("%zu sessions, %zu tenants (floors: 50000, 8)", cfg.mix.sessions,
          cfg.mix.tenantCount));
  add(checks, "all_sessions_joined",
      report.sessionsJoined == report.sessionsPlanned,
      fmt("%zu of %zu", report.sessionsJoined, report.sessionsPlanned));
  add(checks, "all_sessions_terminal",
      report.sessionsCompleted + report.sessionsLeft == report.sessionsJoined,
      fmt("%zu completed + %zu left == %zu joined", report.sessionsCompleted,
          report.sessionsLeft, report.sessionsJoined));
  add(checks, "fault_injection_live",
      report.faultSessions > 0 && report.faultMutationsApplied > 0,
      fmt("%zu sessions fault-injected, %zu mutations, %zu undecodable",
          report.faultSessions, report.faultMutationsApplied,
          report.faultUndecodable));
  add(checks, "client_never_throws", report.faultThrows == 0,
      fmt("%zu receive() throws on damaged streams", report.faultThrows));
  add(checks, "report_metrics_sane",
      report.servedHours > 0.0 && report.wattsSavedPerMillionSessions > 0.0 &&
          report.cacheHitRate > 0.0 && report.cacheHitRate <= 1.0 &&
          report.startupP99Seconds >= report.startupP50Seconds &&
          report.rebufferP99Seconds >= report.rebufferP50Seconds &&
          report.cacheFills > 0,
      fmt("%.1f served-hours, %.3g W/M-sessions, hit rate %.4f, %" PRIu64
          " engine passes",
          report.servedHours, report.wattsSavedPerMillionSessions,
          report.cacheHitRate, report.cacheFills));

  // 3. Determinism: identical config, fresh stack, byte-identical core.
  {
    std::printf("determinism: re-running the identical config...\n");
    const soak::FleetSoakReport twin = soak::runSoak(cfg);
    const std::string a = soak::deterministicJson(report);
    const std::string b = soak::deterministicJson(twin);
    add(checks, "deterministic_report", a == b,
        a == b ? fmt("deterministic core identical (%zu bytes)", a.size())
               : "same seed produced a different report");
  }

  // 4. Capacity model: fit on the soak, predict a held-out mix, measure it.
  soak::CapacityValidation validation;
  try {
    const soak::CapacityModel model = soak::CapacityModel::fit(report);
    soak::SoakConfig holdout = cfg;
    holdout.mix.seed = cfg.mix.seed ^ 0x9E3779B97F4A7C15ULL;
    holdout.mix.sessions =
        holdoutSessions != 0 ? holdoutSessions
                             : std::max<std::size_t>(1, cfg.mix.sessions / 4);
    const soak::TrafficMix holdoutMix = soak::generateTrafficMix(holdout.mix);
    const soak::CapacityPrediction prediction = model.predict(holdoutMix);
    std::printf(
        "capacity: predicting held-out mix (%zu sessions, seed 0x%" PRIx64
        ", %zu uncovered)...\n",
        prediction.sessions, holdout.mix.seed, prediction.uncoveredSessions);
    const soak::FleetSoakReport measured = soak::runSoak(holdout);
    validation =
        soak::CapacityModel::validate(prediction, measured, tolerance);
    for (const soak::MetricCheck& c : validation.checks) {
      std::printf("  %-32s predicted %.6g measured %.6g (%.2f%% err)%s\n",
                  c.name.c_str(), c.predicted, c.measured,
                  100.0 * c.relativeError, c.within ? "" : "  <-- OUT");
    }
    add(checks, "capacity_model_within_tol", validation.pass,
        fmt("%zu metrics vs held-out run, tolerance %.0f%%",
            validation.checks.size(), 100.0 * tolerance));
    std::printf(
        "capacity queries: tenant 0 saves %.3g J/served-hour; one engine "
        "core sustains %.3g sessions/hour at the observed %.4f hit rate\n",
        model.joulesSavedPerServedHour(0),
        model.sessionsPerEngineCoreHour(report.cacheHitRate),
        report.cacheHitRate);
  } catch (const std::exception& e) {
    add(checks, "capacity_model_within_tol", false,
        fmt("threw: %s", e.what()));
  }

  // FLEET_SOAK.json: the full report + the capacity block + the verdicts.
  bool allPass = true;
  for (const Check& c : checks) allPass = allPass && c.pass;
  std::string extra = soak::toJson(validation);
  extra += "  ,\"self_checks\": [\n";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    extra += "    {\"name\": \"" + checks[i].name + "\", \"pass\": " +
             (checks[i].pass ? "true" : "false") + "}";
    extra += i + 1 < checks.size() ? ",\n" : "\n";
  }
  extra += "  ],\n";
  extra += std::string("  \"pass\": ") + (allPass ? "true" : "false") + "\n";
  {
    std::ofstream out(outPath, std::ios::binary);
    out << soak::toJson(report, extra);
    out.close();
    if (!out) {
      std::fprintf(stderr, "fleet_soak: cannot write %s\n", outPath.c_str());
      return 2;
    }
  }
  std::printf("wrote %s\n", outPath.c_str());
  std::printf("fleet_soak: %s\n", allPass ? "ALL CHECKS PASSED" : "FAILED");
  return allPass ? 0 : 1;
}
