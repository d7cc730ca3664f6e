// Fleet-scale serving bench: N concurrent sessions over a multi-tenant,
// multi-clip catalog through the shared TrackCache + SessionScheduler.
//
// The claim under test (ROADMAP "one engine pass, N clients, M tenants"):
// engine-seconds are a function of unique (clip, tenant-fingerprint) pairs,
// NOT of session count -- so a 10k-session fleet on a 10-tenant, 100-clip
// mix pays ~1000 engine passes, a >90% annotation-cache hit rate, and a
// sub-linearity factor of sessions/fills.  The bench self-checks those
// invariants (exit 1 on violation) and emits BENCH_fleet.json.
//
//   bench_fleet [--sessions N] [--clips N] [--tenants N]
//               [--deviceGroups N] [--maxTicks N]
//
// CI runs a reduced mix (see .github/workflows/ci.yml); defaults reproduce
// the ISSUE's 10k-session acceptance numbers.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/track_cache.h"
#include "media/clipgen.h"
#include "stream/scheduler.h"
#include "stream/server.h"

namespace anno {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Ten plan-distinct tenants (distinct fingerprints by construction --
/// pinned in tests/fleet); index i % 10 picks tenant i's config.
std::vector<core::AnnotatorConfig> makeTenants(std::size_t count) {
  std::vector<core::AnnotatorConfig> tenants;
  for (std::size_t i = 0; i < count; ++i) {
    core::AnnotatorConfig cfg;
    switch (i % 10) {
      case 0: break;  // the server default
      case 1: cfg.granularity = core::Granularity::kPerFrame; break;
      case 2: cfg.detector = core::SceneDetector::kHistogramEmd; break;
      case 3:
        cfg.detector = core::SceneDetector::kHistogramEmd;
        cfg.granularity = core::Granularity::kPerFrame;
        break;
      case 4: cfg.qualityLevels = {0.0, 0.1, 0.2, 0.3}; break;
      case 5: cfg.protectCredits = true; break;
      case 6: cfg.sceneDetect.changeThreshold = 0.15; break;
      case 7:
        cfg.detector = core::SceneDetector::kHistogramEmd;
        cfg.histogramDetect.emdThreshold = 8.0;
        break;
      case 8:
        // Four levels minimum: device groups index up to quality 3.
        cfg.granularity = core::Granularity::kPerFrame;
        cfg.qualityLevels = {0.0, 0.05, 0.15, 0.3};
        break;
      case 9:
        cfg.protectCredits = true;
        cfg.detector = core::SceneDetector::kHistogramEmd;
        break;
    }
    // Past ten, perturb the ACTIVE detector's threshold so fingerprints
    // stay distinct (the inactive detector's knobs are cosmetic).
    if (i >= 10) {
      const double nudge = 0.001 * static_cast<double>(i);
      if (cfg.detector == core::SceneDetector::kHistogramEmd) {
        cfg.histogramDetect.emdThreshold += nudge;
      } else {
        cfg.sceneDetect.changeThreshold += nudge;
      }
    }
    tenants.push_back(std::move(cfg));
  }
  return tenants;
}

int run(std::size_t sessions, std::size_t clips, std::size_t tenantCount,
        std::size_t deviceGroups, std::uint64_t maxTicks) {
  bench::printHeader(
      "Fleet-scale serving: shared annotation cache + session scheduler\n"
      "(engine passes ~ unique (clip, tenant) pairs, not session count)");
  std::printf("sessions=%zu clips=%zu tenants=%zu deviceGroups=%zu\n\n",
              sessions, clips, tenantCount, deviceGroups);

  // --- Catalog ingest (profiling stats cached per clip) -------------------
  core::AnnotatorConfig serverCfg;
  serverCfg.threads = 0;  // parallel ingest; cosmetic for the fingerprint
  stream::MediaServer server(serverCfg);
  core::TrackCacheConfig cacheCfg;
  cacheCfg.byteBudget = 256u << 20;  // generous: measure sharing, not churn
  core::TrackCache cache(cacheCfg);
  server.attachTrackCache(cache);

  const auto ingestStart = Clock::now();
  {
    constexpr media::PaperClip kSources[] = {
        media::PaperClip::kTheMovie,     media::PaperClip::kCatwoman,
        media::PaperClip::kHunterSubres, media::PaperClip::kIRobot,
        media::PaperClip::kIceAge,       media::PaperClip::kOfficeXp,
        media::PaperClip::kReturnOfTheKing, media::PaperClip::kShrek2,
        media::PaperClip::kSpiderman2,   media::PaperClip::kIncrediblesTlr2};
    std::vector<media::VideoClip> batch;
    batch.reserve(clips);
    for (std::size_t c = 0; c < clips; ++c) {
      media::VideoClip clip = media::generatePaperClip(
          kSources[c % (sizeof kSources / sizeof kSources[0])], 0.01, 32, 24);
      clip.name += '-';
      clip.name += std::to_string(c);
      batch.push_back(std::move(clip));
    }
    server.addClips(std::move(batch));
  }
  const double ingestSeconds = secondsSince(ingestStart);

  const std::vector<core::AnnotatorConfig> tenants = makeTenants(tenantCount);
  const std::vector<std::string> catalog = server.catalog();
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);

  // Session i's assignment sweeps the full (clip, tenant, device-group)
  // cross-product: clip varies fastest, then tenant, then group -- so a
  // 10k-session run touches every one of the clips x tenants cache keys,
  // not an aliased subset.
  const auto clipOf = [&](std::size_t i) -> const std::string& {
    return catalog[i % catalog.size()];
  };
  const auto tenantOf = [&](std::size_t i) -> const core::AnnotatorConfig& {
    return tenants[(i / catalog.size()) % tenants.size()];
  };
  const auto groupOf = [&](std::size_t i) {
    return (i / (catalog.size() * tenants.size())) % deviceGroups;
  };

  // --- Per-session annotation resolution (the cache's hot path) ----------
  const auto resolveStart = Clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    (void)server.annotationFor(clipOf(i), tenantOf(i));
  }
  const double resolveSeconds = secondsSince(resolveStart);

  // --- Fleet playback through the scheduler -------------------------------
  stream::SessionScheduler::Config schedCfg;
  schedCfg.tickSeconds = 0.1;
  stream::SessionScheduler sched(server, schedCfg);
  const auto joinStart = Clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    stream::FleetSessionConfig s;
    s.clipName = clipOf(i);
    s.caps = stream::ClientCapabilities{
        device.name, device.transfer, groupOf(i)};
    // Tenant 0 is the server default; leaving tenantCfg unset exercises
    // the default-config serve path alongside the tenant path.
    if ((i / catalog.size()) % tenants.size() != 0) s.tenantCfg = tenantOf(i);
    s.bandwidth = stream::BandwidthTrace::constant(8e6);
    s.startupBufferSeconds = 0.2;
    (void)sched.join(s);
  }
  const double joinSeconds = secondsSince(joinStart);
  const auto runStart = Clock::now();
  const std::uint64_t ticks = sched.run(maxTicks);
  const double runSeconds = secondsSince(runStart);

  const core::TrackCacheStats cs = cache.stats();
  const core::CacheStats ss = server.streamCache().stats();
  const stream::FleetStats fs = sched.stats();
  std::set<std::uint64_t> fingerprints;
  for (const core::AnnotatorConfig& t : tenants) {
    fingerprints.insert(t.fingerprint());
  }
  // Every (clip, fingerprint) pair the resolve loop touched, assuming
  // sessions >= clips x tenants (the defaults: 10000 >= 1000).
  const std::size_t uniqueKeys =
      sessions >= catalog.size() * tenants.size()
          ? catalog.size() * fingerprints.size()
          : cs.fills;  // undersized runs: skip the exact-fill check
  const double subLinear =
      cs.fills > 0 ? static_cast<double>(sessions) /
                         static_cast<double>(cs.fills)
                   : 0.0;

  bench::Table table({"metric", "value"});
  table.addRow({"sessions joined", std::to_string(fs.sessionsJoined)});
  table.addRow({"sessions completed", std::to_string(fs.sessionsCompleted)});
  table.addRow({"peak concurrent", std::to_string(fs.peakConcurrentSessions)});
  table.addRow({"scheduler ticks", std::to_string(ticks)});
  table.addRow({"unique streams", std::to_string(fs.uniqueStreams)});
  table.addRow({"cache requests", std::to_string(cs.hits + cs.misses)});
  table.addRow({"cache hits", std::to_string(cs.hits)});
  table.addRow({"cache fills (engine passes)", std::to_string(cs.fills)});
  table.addRow({"unique (clip, tenant) keys", std::to_string(uniqueKeys)});
  table.addRow({"cache hit rate %", bench::pct(cs.hitRate())});
  table.addRow({"stream cache hits", std::to_string(ss.hits)});
  table.addRow({"stream cache evictions", std::to_string(ss.evictions)});
  table.addRow({"stream cache bytes", std::to_string(ss.bytes)});
  table.addRow({"engine seconds (fills)", bench::fmt(cs.fillSeconds, 3)});
  table.addRow({"ingest seconds", bench::fmt(ingestSeconds, 3)});
  table.addRow({"resolve seconds", bench::fmt(resolveSeconds, 3)});
  table.addRow({"join seconds", bench::fmt(joinSeconds, 3)});
  table.addRow({"playback seconds", bench::fmt(runSeconds, 3)});
  table.addRow({"sessions per engine pass", bench::fmt(subLinear, 1)});
  table.print();
  table.printCsv("fleet");

  // --- Self-checks (the ISSUE's acceptance criteria) ----------------------
  int failures = 0;
  if (cs.fills != uniqueKeys) {
    std::printf("FAIL: fills (%llu) != unique keys (%zu) -- single-flight "
                "or keying broken\n",
                static_cast<unsigned long long>(cs.fills), uniqueKeys);
    ++failures;
  }
  if (cs.hitRate() <= 0.9) {
    std::printf("FAIL: cache hit rate %.1f%% <= 90%%\n",
                100.0 * cs.hitRate());
    ++failures;
  }
  if (fs.sessionsCompleted != sessions) {
    std::printf("FAIL: %zu/%zu sessions completed\n", fs.sessionsCompleted,
                sessions);
    ++failures;
  }
  if (fs.peakConcurrentSessions != sessions) {
    std::printf("FAIL: peak concurrency %zu != %zu\n",
                fs.peakConcurrentSessions, sessions);
    ++failures;
  }

  const std::string path = bench::jsonPath("BENCH_fleet.json");
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"sessions\": %zu,\n"
                 "  \"clips\": %zu,\n"
                 "  \"tenants\": %zu,\n"
                 "  \"device_groups\": %zu,\n"
                 "  \"sessions_completed\": %zu,\n"
                 "  \"peak_concurrent_sessions\": %zu,\n"
                 "  \"scheduler_ticks\": %llu,\n"
                 "  \"unique_streams\": %zu,\n"
                 "  \"cache_hits\": %llu,\n"
                 "  \"cache_misses\": %llu,\n"
                 "  \"cache_fills\": %llu,\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"single_flight_waits\": %llu,\n"
                 "  \"unique_clip_tenant_keys\": %zu,\n"
                 "  \"stream_cache_hits\": %llu,\n"
                 "  \"stream_cache_evictions\": %llu,\n"
                 "  \"stream_cache_bytes\": %zu,\n"
                 "  \"engine_seconds\": %.6f,\n"
                 "  \"ingest_seconds\": %.6f,\n"
                 "  \"resolve_seconds\": %.6f,\n"
                 "  \"join_seconds\": %.6f,\n"
                 "  \"playback_seconds\": %.6f,\n"
                 "  \"sessions_per_engine_pass\": %.2f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 sessions, clips, tenantCount, deviceGroups,
                 fs.sessionsCompleted, fs.peakConcurrentSessions,
                 static_cast<unsigned long long>(ticks), fs.uniqueStreams,
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.fills),
                 cs.hitRate(),
                 static_cast<unsigned long long>(cs.singleFlightWaits),
                 uniqueKeys, static_cast<unsigned long long>(ss.hits),
                 static_cast<unsigned long long>(ss.evictions), ss.bytes,
                 cs.fillSeconds, ingestSeconds, resolveSeconds,
                 joinSeconds, runSeconds, subLinear,
                 failures == 0 ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace anno

int main(int argc, char** argv) {
  std::size_t sessions = 10000;
  std::size_t clips = 100;
  std::size_t tenants = 10;
  std::size_t deviceGroups = 4;
  std::uint64_t maxTicks = 1'000'000;
  for (int i = 1; i + 1 < argc; i += 2) {
    const auto value = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    if (std::strcmp(argv[i], "--sessions") == 0) sessions = value;
    else if (std::strcmp(argv[i], "--clips") == 0) clips = value;
    else if (std::strcmp(argv[i], "--tenants") == 0) tenants = value;
    else if (std::strcmp(argv[i], "--deviceGroups") == 0) deviceGroups = value;
    else if (std::strcmp(argv[i], "--maxTicks") == 0) maxTicks = value;
  }
  return anno::run(sessions, clips, tenants, deviceGroups, maxTicks);
}
