// The three serving workloads.  Each is a closed loop from this process
// over the real stream/core/compensate/media stack; README.md says why each
// exists and which layer it stresses.
//
// Shape shared by all three: inputs are generated from the seed once per
// process, then the workload repeats whole iterations (fresh server, fresh
// caches) until --seconds have passed.  Every iteration does identical
// work, so the deterministic metrics (backlight savings, PSNR, bytes per
// frame, stall ratio) must repeat exactly; a difference is a failure.  In a
// traced run, odd iterations are traced: each public call is wrapped in a
// span, and the calls a workload makes in one piece (serve, receive, the
// proxy fan-out) are replayed layer by layer and checked byte for byte
// against the real call.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sched.h>
#include <set>
#include <stdexcept>
#include <sys/resource.h>
#include <tuple>
#include <utility>

#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/runtime.h"
#include "core/track_cache.h"
#include "fault/inject.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "quality/metrics.h"
#include "servebench.h"
#include "soak/driver.h"
#include "soak/traffic_mix.h"
#include "stream/client.h"
#include "stream/mux.h"
#include "stream/net.h"
#include "stream/proxy.h"
#include "stream/scheduler.h"
#include "stream/server.h"
#include "stream/session_sim.h"
#include "telemetry/trace.h"

namespace servebench {

using namespace anno;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Driving-thread CPU seconds since `startNs` (a threadCpuNs() reading).
double cpuSecondsSince(double startNs) {
  return (threadCpuNs() - startNs) / 1e9;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0 : (values[(n - 1) / 2] + values[n / 2]) / 2.0;
}

/// A clip of `scenes` scenes: the frames of `render(0)`, with the s-th of
/// `scenes` equal runs of them replaced by the same frames of `render(s)`.
/// At the short durations these workloads use, one paper-clip render is a
/// single scene, so a catalog of one-render clips varies as much from seed
/// to seed as its few scenes do.  Several scenes per clip, at the same
/// frame count and so the same work, steady the catalog's averages.
template <typename Render>
media::VideoClip spliceScenes(std::size_t scenes, Render&& render) {
  media::VideoClip clip = render(std::size_t{0});
  const std::size_t n = clip.frames.size();
  for (std::size_t s = 1; s < scenes; ++s) {
    media::VideoClip part = render(s);
    if (part.frames.size() < n) {
      throw std::logic_error("scene render shorter than the clip");
    }
    const std::size_t begin = n * s / scenes, end = n * (s + 1) / scenes;
    std::move(part.frames.begin() + static_cast<std::ptrdiff_t>(begin),
              part.frames.begin() + static_cast<std::ptrdiff_t>(end),
              clip.frames.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  return clip;
}

/// Scenes per synthesized clip (see spliceScenes).
constexpr std::size_t kScenesPerClip = 3;

/// Seed of the s-th scene of a clip whose first scene has seed `seed`.
std::uint64_t sceneSeed(std::uint64_t seed, std::size_t s) noexcept {
  return s == 0 ? seed : mix64(seed + s) | 1;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// The soak's four device classes, with every link rate multiplied by
/// `linkScale` and the commute class's dip pattern shortened 4x.  The
/// default links are sized for far larger and longer streams than these
/// workloads serve: unscaled, a whole stream arrives inside one tick, and
/// a 2 s dip period is longer than most sessions, so whether a session
/// rebuffers hinges on its exact length.  Scaled, the slow classes run near
/// their content's bitrate and every commute session sees several dips,
/// so the stall ratio moves smoothly with bytes per frame.
std::vector<soak::DeviceClass> deviceClassesFor(double linkScale) {
  std::vector<soak::DeviceClass> classes = soak::defaultDeviceClasses();
  for (soak::DeviceClass& dc : classes) {
    dc.meanBitsPerSec *= linkScale;
    dc.dipPeriodSeconds *= 0.25;
    dc.dipSeconds *= 0.25;
  }
  return classes;
}

/// Pins the calling thread to one CPU for a timed piece of work: the
/// `turn`-th of the CPUs the process may use, modulo their count.  The mask
/// is restored after.  On a shared host the vCPUs are slowed unevenly;
/// moving a piece to the next CPU on each repeat lets its fastest repeat
/// (which is what a run reports) find an unslowed one.  Threads spawned
/// inside would inherit the pin, so pinned pieces are single-threaded
/// (set-up, whose ingest runs on a pool, stays outside).
class WindowPin {
 public:
  explicit WindowPin(std::uint64_t turn) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    int skip = static_cast<int>(turn % static_cast<std::uint64_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  WindowPin(const WindowPin&) = delete;
  WindowPin& operator=(const WindowPin&) = delete;
  ~WindowPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Link scale of the 32x24 workloads: diurnal_soak's (which the soak
/// driver's reference run uses too) and fleet_join's.  fleet_join's links
/// run further below its content's bitrate, so its stall ratio is larger
/// and, relative to its size, moves less with the seed's content: closer
/// to the bitrate, a few percent more bytes per frame add tens of percent
/// of stall.
constexpr double kThumbnailLinkScale = 0.008;
constexpr double kFleetLinkScale = 0.005;

stream::BandwidthTrace linkFor(const soak::DeviceClass& dc,
                               double bandwidthScale) {
  const double rate = dc.meanBitsPerSec * bandwidthScale;
  return dc.periodicDips
             ? stream::BandwidthTrace::periodicDip(rate, rate * dc.dipFraction,
                                                   dc.dipPeriodSeconds,
                                                   dc.dipSeconds)
             : stream::BandwidthTrace::constant(rate);
}

/// Link-rate multiplier of the i-th session in [1 - jitter, 1 + jitter]:
/// a golden-ratio sequence, so rates cover the class's range evenly and do
/// not change with the seed (the seed varies content and arrival order;
/// random link draws would swamp the stall ratio with draw noise).
double linkJitter(std::size_t i, double jitter) {
  const double u =
      std::fmod((static_cast<double>(i) + 0.5) * 0.6180339887498949, 1.0);
  return 1.0 - jitter + 2.0 * jitter * u;
}

/// Per-class negotiation and client state.
struct ClientClass {
  soak::DeviceClass cls;
  display::DeviceModel device;
  stream::ClientCapabilities caps;
  std::unique_ptr<stream::ClientSession> client;
};

std::vector<ClientClass> makeClientClasses(
    const std::vector<soak::DeviceClass>& classes) {
  std::vector<ClientClass> out;
  for (const soak::DeviceClass& dc : classes) {
    ClientClass c;
    c.cls = dc;
    c.device = display::makeDevice(dc.device);
    c.caps.deviceName = c.device.name;
    c.caps.transfer = c.device.transfer;
    c.caps.qualityIndex = dc.qualityIndex;
    c.caps.minBacklightLevel = dc.minBacklightLevel;
    stream::ClientConfig cfg;
    cfg.device = c.device;
    cfg.qualityIndex = dc.qualityIndex;
    cfg.minBacklightLevel = dc.minBacklightLevel;
    c.client = std::make_unique<stream::ClientSession>(
        cfg, stream::makeReferencePath());
    out.push_back(std::move(c));
  }
  return out;
}

/// Mean backlight watts saved against level 255 over a schedule's frames,
/// and the full-backlight watts (the soak driver's roll-up, per frame).
std::pair<double, double> savedWatts(const core::BacklightSchedule& schedule,
                                     const display::DeviceModel& device) {
  const double full = device.backlightPowerWatts(255);
  if (schedule.frameCount == 0) return {0.0, full};
  double saved = 0.0;
  for (std::uint32_t f = 0; f < schedule.frameCount; ++f) {
    saved += full - device.backlightPowerWatts(schedule.levelAt(f));
  }
  return {saved / static_cast<double>(schedule.frameCount), full};
}

bool sameSchedule(const core::BacklightSchedule& a,
                  const core::BacklightSchedule& b) {
  if (a.frameCount != b.frameCount || a.commands.size() != b.commands.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.commands.size(); ++i) {
    const core::BacklightCommand& x = a.commands[i];
    const core::BacklightCommand& y = b.commands[i];
    if (x.frame != y.frame || x.level != y.level || x.gainK != y.gainK ||
        (x.toneCurve == nullptr) != (y.toneCurve == nullptr) ||
        (x.toneCurve && *x.toneCurve != *y.toneCurve)) {
      return false;
    }
  }
  return true;
}

/// Mean per-frame luma PSNR accumulator.
struct PsnrMean {
  double sum = 0.0;
  std::size_t frames = 0;

  bool add(const media::VideoClip& reference, const media::VideoClip& got) {
    if (reference.frames.size() != got.frames.size()) return false;
    for (std::size_t f = 0; f < got.frames.size(); ++f) {
      sum += quality::psnr(reference.frames[f], got.frames[f]);
    }
    frames += got.frames.size();
    return true;
  }
  [[nodiscard]] double mean() const {
    return frames > 0 ? sum / static_cast<double>(frames) : 0.0;
  }
};

/// The deterministic outputs of one iteration; every iteration must
/// reproduce the first one's exactly.
struct Deterministic {
  double savedPct = 0.0;
  double stallRatio = 0.0;
  double bytesPerFrame = 0.0;

  friend bool operator==(const Deterministic&, const Deterministic&) = default;
};

/// End-to-end accumulators.  The timed loop of an iteration is cut into
/// segments (a scheduler tick with its arrivals, or a proxy round), and
/// the session rate is an iteration's sessions over the sum of each
/// segment's fastest repeat.  Latency quantiles are likewise taken over
/// each call's fastest repeat (see FastestSamples).  Set-up time is the
/// median of the run's set-ups.
struct EndToEnd {
  /// Ends an iteration, which made `count` sessions playable and drove
  /// them to a terminal state.
  void iteration(std::uint64_t count) {
    sessionsPerIteration = count;
    ++iterations;
    segmentSeconds.endIteration();
    joinMs.endIteration();
    receiveMs.endIteration();
  }

  std::vector<double> setupSeconds;
  FastestSamples segmentSeconds;  ///< timed CPU seconds per segment
  std::uint64_t sessionsPerIteration = 0;
  std::uint64_t iterations = 0;
  FastestSamples joinMs;
  FastestSamples receiveMs;
  Deterministic det;
  double psnrDb = 0.0;
};

/// Runs `body` as the next timed segment of an iteration.
template <typename Body>
void timedSegment(EndToEnd& e2e, Body&& body) {
  const double startNs = threadCpuNs();
  body();
  e2e.segmentSeconds.add(cpuSecondsSince(startNs));
}

void appendEndToEnd(const EndToEnd& e, Result& result) {
  std::printf("samples: %llu iterations of %llu sessions in %zu segments, "
              "joins=%llu over %zu calls, receives=%llu over %zu calls, "
              "setups=%zu\n",
              static_cast<unsigned long long>(e.iterations),
              static_cast<unsigned long long>(e.sessionsPerIteration),
              e.segmentSeconds.calls(),
              static_cast<unsigned long long>(e.joinMs.count()),
              e.joinMs.calls(),
              static_cast<unsigned long long>(e.receiveMs.count()),
              e.receiveMs.calls(), e.setupSeconds.size());
  result.endToEnd = {
      {"setup_s", "s", median(e.setupSeconds)},
      {"sessions_per_s", "1/s",
       static_cast<double>(e.sessionsPerIteration) / e.segmentSeconds.sum()},
      {"join_p50_ms", "ms", e.joinMs.quantile(0.50)},
      {"join_p99_ms", "ms", e.joinMs.quantile(0.99)},
      {"receive_p50_ms", "ms", e.receiveMs.quantile(0.50)},
      {"receive_p90_ms", "ms", e.receiveMs.quantile(0.90)},
      {"peak_rss_mb", "MB", peakRssMb()},
      {"backlight_saved_pct", "%", e.det.savedPct},
      {"psnr_db", "dB", e.psnrDb},
      {"bytes_per_frame", "bytes", e.det.bytesPerFrame},
      {"stall_ratio", "ratio", e.det.stallRatio},
  };
}

/// Runs iterations until `opts.seconds` have passed.  A traced run
/// alternates untraced and traced iterations (at least one of each), so
/// the traced iterations' serving-call time can be set against an untraced
/// baseline from the same process.
template <typename Iteration>
TracedRun drive(const Options& opts, Ledger& ledger, Iteration&& iterate) {
  TracedRun run;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    ledger.setTracing(traced);
    const double t0 = threadCpuNs();
    iterate(i, traced);
    if (traced) {
      run.cpuNs += threadCpuNs() - t0;
      ++run.iterations;
    } else if (opts.trace) {
      ++run.untracedIterations;
    }
    if (secondsSince(start) >= opts.seconds &&
        (!opts.trace || run.iterations > 0)) {
      break;
    }
  }
  ledger.setTracing(false);
  return run;
}

/// Traced set-up replay: the profile + engine passes addClips runs inside,
/// one clip at a time, checked against the catalog's track.
void replayIngest(Ledger& ledger, const stream::MediaServer& server,
                  Result& result) {
  for (const std::string& name : server.catalog()) {
    const stream::CatalogEntry& e = server.entry(name);
    const double frames = static_cast<double>(e.original.frames.size());
    std::vector<media::FrameStats> stats;
    {
      Ledger::Scope s(ledger, Stage::kProfile, 0, frames);
      stats = media::profileClip(e.original);
    }
    core::AnnotationTrack track;
    {
      Ledger::Scope s(ledger, Stage::kEngine, 0, frames);
      track = core::annotate(name, e.original.fps, stats,
                             server.annotatorConfig());
    }
    result.check(track == e.track, "ingest replay track == catalog track (" +
                                       name + ")");
  }
}

/// Traced serve path for one join: the capabilities encode every join pays,
/// and on a predicted memo miss the replayed layers of serve() -- the
/// arrival's TrackCache result -> compensateClip -> encodeClip ->
/// ComplexityTrack -> mux -- checked against the bytes serve() returns.
/// serve() is then called directly, so the join that follows is a hit.
struct ServeReplay {
  std::set<std::tuple<std::string, std::uint64_t, std::vector<std::uint8_t>>>
      served;
  double encodedBytes = 0.0;
  double encodedFrames = 0.0;

  void run(Ledger& ledger, const stream::MediaServer& server,
           const stream::FleetSessionConfig& s,
           const core::CachedTrackPtr& track, std::uint64_t sessionId,
           Result& result) {
    std::vector<std::uint8_t> capsBytes;
    {
      Ledger::Scope scope(ledger, Stage::kCapsEncode, sessionId);
      capsBytes = stream::encodeCapabilities(s.caps);
    }
    const std::uint64_t fp = s.tenantCfg ? s.tenantCfg->fingerprint()
                                         : server.annotatorConfig().fingerprint();
    if (!served.emplace(s.clipName, fp, std::move(capsBytes)).second) return;

    const stream::CatalogEntry& e = server.entry(s.clipName);
    const double frames = static_cast<double>(e.original.frames.size());
    {
      Ledger::Scope scope(ledger, Stage::kTrackEncode, sessionId);
      scope.setUnits(static_cast<double>(core::encodeTrack(track->track).size()));
    }
    media::VideoClip compensated;
    {
      Ledger::Scope scope(ledger, Stage::kCompensate, sessionId, frames);
      compensated = core::compensateClip(
          e.original, track->track, s.caps.qualityIndex,
          stream::deviceFromCapabilities(s.caps), s.caps.minBacklightLevel);
    }
    media::EncodedClip encoded;
    {
      Ledger::Scope scope(ledger, Stage::kEncode, sessionId, frames);
      encoded = media::encodeClip(compensated);
    }
    encodedBytes += static_cast<double>(encoded.totalBytes());
    encodedFrames += frames;
    power::ComplexityTrack complexity;
    {
      Ledger::Scope scope(ledger, Stage::kComplexity, sessionId);
      complexity = power::ComplexityTrack::fromEncodedClip(encoded);
    }
    std::vector<std::uint8_t> bytes;
    {
      Ledger::Scope scope(ledger, Stage::kMux, sessionId);
      bytes = stream::mux(encoded, &track->track, &complexity,
                          &track->sketches);
    }
    std::vector<std::uint8_t> real;
    {
      Ledger::Scope scope(ledger, Stage::kServe, sessionId);
      real = s.tenantCfg ? server.serve(s.clipName, s.caps, *s.tenantCfg)
                         : server.serve(s.clipName, s.caps);
    }
    result.check(bytes == real,
                 "recomposed serve bytes == MediaServer::serve (" +
                     s.clipName + ")");
  }
};

/// Traced receive replay: demux -> decodeClip -> buildSchedule, checked
/// against what ClientSession::receive produced from the same bytes.
void replayReceive(Ledger& ledger, const ClientClass& cc,
                   const std::vector<std::uint8_t>& bytes,
                   const stream::ReceivedStream& got, std::uint64_t sessionId,
                   Result& result) {
  stream::DemuxedStream demuxed;
  {
    Ledger::Scope s(ledger, Stage::kDemux, sessionId);
    demuxed = stream::demux(bytes);
  }
  media::VideoClip video;
  {
    Ledger::Scope s(ledger, Stage::kDecode, sessionId,
                    static_cast<double>(demuxed.video.frames.size()));
    video = media::decodeClip(demuxed.video);
  }
  core::BacklightSchedule schedule;
  {
    Ledger::Scope s(ledger, Stage::kSchedule, sessionId);
    schedule = core::buildSchedule(*demuxed.annotations, cc.caps.qualityIndex,
                                   cc.device, cc.caps.minBacklightLevel);
  }
  result.check(video.frames == got.video.frames &&
                   sameSchedule(schedule, got.schedule),
               "receive replay frames and schedule == ClientSession::receive");
}

/// Sessions a tick serves: the units of a traced tick (ns per session-tick);
/// untraced loops skip the stats copy.
double activeSessions(const Ledger& ledger,
                      const stream::SessionScheduler& sched) {
  return ledger.tracing() ? static_cast<double>(sched.stats().activeSessions)
                          : 0.0;
}

/// Receive counters the traced run reports.
struct ReceiveCounts {
  double fallbacks = 0.0;
  double undecodable = 0.0;

  void add(const stream::ReceivedStream& r) {
    if (!r.ok) {
      undecodable += 1.0;
    } else if (r.annotationFallback) {
      fallbacks += 1.0;
    }
  }
};

void printDeterministic(const Deterministic& d, double psnrDb) {
  std::printf("deterministic: backlight_saved_pct=%.6f psnr_db=%.6f "
              "bytes_per_frame=%.6f stall_ratio=%.6f\n",
              d.savedPct, psnrDb, d.bytesPerFrame, d.stallRatio);
}

}  // namespace

// ---------------------------------------------------------------------------
// fleet_join: ~10k sessions over 100 clips x 10 tenants x 4 device classes
// (4000 distinct streams), so ~40% of joins miss the serve memo and pay
// compensate -> encode -> mux.
// ---------------------------------------------------------------------------
Result runFleetJoin(const Options& opts) {
  const std::size_t clipCount = opts.tiny ? 8 : 100;
  const std::size_t tenantCount = opts.tiny ? 3 : 10;
  const std::size_t sessionCount = opts.tiny ? 240 : 10000;
  const std::size_t arrivalsPerTick = opts.tiny ? 40 : 500;
  constexpr int kWidth = 32, kHeight = 24;

  std::vector<media::VideoClip> clips;
  const std::vector<media::PaperClip> sources = media::allPaperClips();
  for (std::size_t c = 0; c < clipCount; ++c) {
    const media::PaperClip src = sources[c % sources.size()];
    const std::uint64_t seed = mix64(opts.seed * 1000 + c) | 1;
    media::VideoClip clip = spliceScenes(kScenesPerClip, [&](std::size_t s) {
      return media::generateClip(media::paperClipProfile(
          src, 0.01, kWidth, kHeight, sceneSeed(seed, s)));
    });
    clip.name = media::paperClipName(src) + "-" + std::to_string(c);
    clips.push_back(std::move(clip));
  }
  const std::vector<core::AnnotatorConfig> tenants =
      soak::makeTenantConfigs(tenantCount);
  std::vector<ClientClass> classes =
      makeClientClasses(deviceClassesFor(kFleetLinkScale));
  const std::size_t groups = classes.size();

  // Session i's stream sweeps the (clip, tenant, class) cross-product as in
  // bench_fleet; the seed shuffles arrival order.
  struct Plan {
    std::size_t clip, tenant, group;
    double bandwidthScale;
  };
  std::vector<Plan> plans;
  for (std::size_t i = 0; i < sessionCount; ++i) {
    const std::size_t g = (i / (clipCount * tenantCount)) % groups;
    plans.push_back({i % clipCount, (i / clipCount) % tenantCount, g,
                     linkJitter(i, classes[g].cls.bandwidthJitter)});
  }
  media::SplitMix64 rng(opts.seed ^ 0xF1EE7);
  for (std::size_t i = plans.size(); i > 1; --i) {
    std::swap(plans[i - 1], plans[rng.below(i)]);
  }
  const auto streamKey = [&](const Plan& p) {
    return p.clip + clipCount * (p.tenant + tenantCount * p.group);
  };
  std::set<std::size_t> streamKeys;
  std::set<std::pair<std::size_t, std::uint64_t>> trackKeys;
  for (const Plan& p : plans) {
    streamKeys.insert(streamKey(p));
    trackKeys.insert({p.clip, tenants[p.tenant].fingerprint()});
  }

  Result result;
  EndToEnd e2e;
  telemetry::TraceRecorder recorder({.eventsPerThread = 1u << 18});
  Ledger ledger(opts.trace ? &recorder : nullptr);
  ServeReplay serveReplay;
  ReceiveCounts receiveCounts;
  core::TrackCacheStats tracedCache;
  std::optional<Deterministic> first;

  const TracedRun run = drive(opts, ledger, [&](std::uint64_t iter,
                                                bool traced) {
    std::vector<media::VideoClip> batch = clips;  // input copy, untimed
    const double setupStart = processCpuSeconds();
    core::AnnotatorConfig serverCfg;
    serverCfg.threads = opts.ingestThreads;
    stream::MediaServer server(serverCfg);
    core::TrackCache cache({.shardCount = 16, .byteBudget = 256u << 20});
    server.attachTrackCache(cache);
    {
      Ledger::Scope s(ledger, Stage::kAddClips);
      server.addClips(std::move(batch));
    }
    e2e.setupSeconds.push_back(processCpuSeconds() - setupStart);
    if (traced) replayIngest(ledger, server, result);

    stream::SessionScheduler::Config schedCfg;
    schedCfg.tickSeconds = 0.1;
    stream::SessionScheduler sched(server, schedCfg);
    std::vector<std::size_t> keyOf(1, 0);  // session id -> stream key
    keyOf.reserve(sessionCount + 1);
    if (traced) serveReplay.served.clear();

    const auto tick = [&] {
      Ledger::Scope s(ledger, Stage::kTick, 0, activeSessions(ledger, sched));
      sched.tick();
    };
    // Each segment runs pinned to the next vCPU in turn, so every segment
    // meets every vCPU over a run's iterations.
    std::uint64_t segment = 0;
    for (std::size_t next = 0; next < plans.size();) {
      const WindowPin pin(iter + segment++);
      timedSegment(e2e, [&] {
        for (std::size_t n = 0; n < arrivalsPerTick && next < plans.size();
             ++n, ++next) {
          const Plan& p = plans[next];
          const ClientClass& cc = classes[p.group];
          const std::uint64_t sessionId = keyOf.size();
          core::CachedTrackPtr track;
          {
            Ledger::Scope s(ledger, Stage::kLookup, sessionId);
            track = server.annotationFor(clips[p.clip].name, tenants[p.tenant]);
          }
          stream::FleetSessionConfig s;
          s.clipName = clips[p.clip].name;
          s.caps = cc.caps;
          // Tenant 0 is the server default; leaving it unset exercises the
          // default-config serve path alongside the tenant path.
          if (p.tenant != 0) s.tenantCfg = tenants[p.tenant];
          s.bandwidth = linkFor(cc.cls, p.bandwidthScale);
          s.startupBufferSeconds = cc.cls.startupBufferSeconds;
          s.bufferCapacitySeconds = cc.cls.bufferCapacitySeconds;
          if (traced) {
            serveReplay.run(ledger, server, s, track, sessionId, result);
          }
          Ledger::Scope join(ledger, Stage::kJoin, sessionId);
          const std::uint64_t id = sched.join(s);
          e2e.joinMs.add(join.stop() / 1e6);
          result.check(id == sessionId, "session ids are dense");
          keyOf.push_back(streamKey(p));
        }
        tick();
      });
    }
    std::uint64_t ticks = 0;
    while (!sched.allSessionsTerminal() && ++ticks < 1'000'000) {
      const WindowPin pin(iter + segment++);
      timedSegment(e2e, tick);
    }

    // --- Correctness gate ------------------------------------------------
    const stream::FleetStats fs = sched.stats();
    const core::TrackCacheStats cs = cache.stats();
    if (traced) tracedCache = cs;
    result.check(fs.sessionsJoined == sessionCount &&
                     fs.sessionsCompleted + fs.sessionsLeft == sessionCount,
                 "every session joined and reached a terminal state");
    result.check(cs.fills == trackKeys.size(),
                 "TrackCache fills == unique (clip, fingerprint) keys");
    result.check(fs.uniqueStreams == streamKeys.size(),
                 "scheduler unique streams == unique stream keys");

    // Every unique stream decodes on its client, intact.  Each run of
    // kReceivesPerPin receives is pinned to the next vCPU in turn, like the
    // segments above.
    constexpr std::size_t kReceivesPerPin = 250;
    std::map<std::size_t, std::pair<double, double>> wattsOf;
    double bytes = 0.0, frames = 0.0;
    PsnrMean psnr;
    std::unique_ptr<WindowPin> receivePin;
    std::size_t received = 0;
    for (const std::size_t key : streamKeys) {
      if (received++ % kReceivesPerPin == 0) {
        receivePin.reset();
        receivePin = std::make_unique<WindowPin>(iter + received /
                                                            kReceivesPerPin);
      }
      const std::size_t c = key % clipCount;
      const std::size_t k = (key / clipCount) % tenantCount;
      const ClientClass& cc = classes[key / (clipCount * tenantCount)];
      const std::vector<std::uint8_t> stream =
          k != 0 ? server.serve(clips[c].name, cc.caps, tenants[k])
                 : server.serve(clips[c].name, cc.caps);
      stream::ReceivedStream r;
      {
        Ledger::Scope s(ledger, Stage::kReceive, key);
        r = cc.client->receive(stream);
        s.setUnits(static_cast<double>(r.video.frames.size()));
        e2e.receiveMs.add(s.stop() / 1e6);
      }
      result.check(r.ok && !r.annotationFallback,
                   "intact stream decodes without fallback (" +
                       clips[c].name + ")");
      if (traced) {
        receiveCounts.add(r);
        replayReceive(ledger, cc, stream, r, key, result);
      }
      wattsOf[key] = savedWatts(r.schedule, cc.device);
      bytes += static_cast<double>(stream.size());
      frames += static_cast<double>(r.video.frames.size());
      if (iter == 0) {
        const media::VideoClip compensated = core::compensateClip(
            server.entry(clips[c].name).original,
            server.annotationFor(clips[c].name, tenants[k])->track,
            cc.caps.qualityIndex, cc.device, cc.caps.minBacklightLevel);
        result.check(psnr.add(compensated, r.video),
                     "decoded frame count == compensated frame count");
      }
    }
    // Session-weighted savings and stall ratio, in virtual time.
    double savedJ = 0.0, fullJ = 0.0, played = 0.0;
    for (std::uint64_t id = 1; id < keyOf.size(); ++id) {
      const stream::SessionReport r = sched.report(id);
      const auto& [saved, full] = wattsOf[keyOf[id]];
      savedJ += saved * r.playedSeconds;
      fullJ += full * r.playedSeconds;
      played += r.playedSeconds;
    }
    Deterministic det;
    det.savedPct = fullJ > 0.0 ? 100.0 * savedJ / fullJ : 0.0;
    det.stallRatio = played > 0.0 ? fs.stallSeconds / played : 0.0;
    det.bytesPerFrame = frames > 0.0 ? bytes / frames : 0.0;
    if (iter == 0) {
      first = det;
      e2e.det = det;
      e2e.psnrDb = psnr.mean();
      printDeterministic(det, e2e.psnrDb);
    }
    result.check(det == *first, "deterministic metrics repeat exactly");
    e2e.iteration(sessionCount);
  });

  appendEndToEnd(e2e, result);
  if (opts.trace) {
    appendPerLayer(
        ledger, run,
        {{"media.encode_bytes_per_frame", "bytes",
          serveReplay.encodedFrames > 0.0
              ? serveReplay.encodedBytes / serveReplay.encodedFrames
              : 0.0},
         {"core.track_cache.hit_rate", "ratio", tracedCache.hitRate()},
         {"core.track_cache.fills", "count",
          static_cast<double>(tracedCache.fills)},
         {"core.track_cache.single_flight_waits", "count",
          static_cast<double>(tracedCache.singleFlightWaits)},
         {"stream.client.fallbacks", "count", receiveCounts.fallbacks},
         {"stream.client.undecodable", "count", receiveCounts.undecodable}},
        result);
    writeTraceArtifacts(opts, recorder, ledger, run);
  }
  return result;
}

// ---------------------------------------------------------------------------
// diurnal_soak: the soak traffic mix, driven join by join so each join is
// timed.  Track-cache and serve-memo hits dominate; the codec is nearly idle.
// ---------------------------------------------------------------------------
Result runDiurnalSoak(const Options& opts) {
  soak::SoakConfig soakCfg;
  soakCfg.mix.seed = opts.seed;
  soakCfg.mix.sessions = opts.tiny ? 600 : 20000;
  soakCfg.mix.tenantCount = 8;
  soakCfg.mix.daySeconds = opts.tiny ? 30.0 : 240.0;
  soakCfg.mix.contentProfiles = soak::defaultContentProfiles(10);
  soakCfg.mix.deviceClasses = deviceClassesFor(kThumbnailLinkScale);
  soakCfg.ingestThreads = opts.ingestThreads;
  soakCfg.deliveryThreads = 1;

  // The soak driver's own report for the same config: the gate every
  // iteration's counters must match.
  const soak::FleetSoakReport reference = soak::runSoak(soakCfg);

  // Catalog inputs exactly as the soak driver renders them.
  std::vector<media::VideoClip> clips;
  for (const soak::ContentProfile& p : soakCfg.mix.contentProfiles) {
    media::VideoClip clip = media::generateClip(
        media::paperClipProfile(p.source, p.durationScale, p.width, p.height));
    clip.name = p.name;
    clips.push_back(std::move(clip));
  }
  std::vector<ClientClass> classes =
      makeClientClasses(soakCfg.mix.deviceClasses);

  Result result;
  EndToEnd e2e;
  telemetry::TraceRecorder recorder({.eventsPerThread = 1u << 18});
  Ledger ledger(opts.trace ? &recorder : nullptr);
  ServeReplay serveReplay;
  ReceiveCounts receiveCounts;
  core::TrackCacheStats tracedCache;
  double faultSessions = 0.0, faultDecodeOk = 0.0;
  std::optional<Deterministic> first;

  const TracedRun run = drive(opts, ledger, [&](std::uint64_t iter,
                                                bool traced) {
    std::vector<media::VideoClip> batch = clips;  // input copy, untimed
    const double setupStart = processCpuSeconds();
    soak::TrafficMix mix;
    {
      Ledger::Scope s(ledger, Stage::kMixGen);
      mix = soak::generateTrafficMix(soakCfg.mix);
    }
    core::AnnotatorConfig serverCfg;
    serverCfg.threads = opts.ingestThreads;
    stream::MediaServer server(serverCfg);
    core::TrackCache cache(
        {.shardCount = 16, .byteBudget = soakCfg.cacheByteBudget});
    server.attachTrackCache(cache);
    {
      Ledger::Scope s(ledger, Stage::kAddClips);
      server.addClips(std::move(batch));
    }
    e2e.setupSeconds.push_back(processCpuSeconds() - setupStart);
    if (traced) {
      replayIngest(ledger, server, result);
      serveReplay.served.clear();
    }
    const WindowPin pin(iter);

    const std::vector<soak::ContentProfile>& profiles =
        mix.config.contentProfiles;
    stream::SessionScheduler::Config schedCfg;
    schedCfg.policy = soakCfg.policy;
    schedCfg.tickSeconds = mix.config.tickSeconds;
    schedCfg.deliveryThreads = soakCfg.deliveryThreads;
    stream::SessionScheduler sched(server, schedCfg);

    // Fault-arm outcomes, counted the way the soak driver counts them.
    std::size_t faults = 0, mutations = 0, decodeOk = 0, fallbacks = 0,
                undecodable = 0, throws = 0;
    const fault::InjectorConfig faultCfg;
    const auto runFaultArm = [&](std::uint32_t planIdx, std::uint64_t seed,
                                 std::uint64_t sessionId) {
      const soak::SessionPlan& plan = mix.sessions[planIdx];
      const ClientClass& cc = classes[plan.deviceClass];
      // The bytes this session streamed (a serve-memo hit).
      const std::vector<std::uint8_t> bytes = server.serve(
          profiles[plan.contentProfile].name, cc.caps, mix.tenants[plan.tenant]);
      fault::InjectionReport injection;
      std::vector<std::uint8_t> damaged;
      {
        Ledger::Scope s(ledger, Stage::kInject, sessionId);
        damaged = fault::injectFaults(bytes, seed, faultCfg, &injection);
      }
      ++faults;
      mutations += injection.mutationsApplied;
      try {
        Ledger::Scope s(ledger, Stage::kReceive, sessionId);
        const stream::ReceivedStream r = cc.client->receive(damaged);
        s.setUnits(static_cast<double>(r.video.frames.size()));
        // Latency of receives that produced a playable stream; the rest
        // return in microseconds and are counted, not timed.
        const double ns = s.stop();
        if (traced) receiveCounts.add(r);
        if (r.ok) {
          e2e.receiveMs.add(ns / 1e6);
          ++decodeOk;
          if (r.annotationFallback) ++fallbacks;
        } else {
          ++undecodable;
        }
      } catch (...) {
        ++throws;  // receive must never throw
      }
    };

    struct Pending {
      std::uint64_t id;
      std::uint32_t plan;
      std::uint64_t seed;
    };
    std::vector<std::uint32_t> planOf(1, 0);  // session id -> plan index
    planOf.reserve(mix.sessions.size() + 1);
    std::multimap<std::uint64_t, std::uint64_t> leavesAt;
    std::vector<Pending> pending;
    std::uint64_t ticks = 0;
    std::size_t nextPlan = 0;
    const std::uint64_t maxTicks = mix.ticks + 1'000'000;

    // Each tick, with its arrivals, leaves and fault-arm decodes, is one
    // timed segment.
    for (std::uint64_t t = 0; t < maxTicks; ++t) {
      const double segmentStartNs = threadCpuNs();
      while (nextPlan < mix.sessions.size() &&
             mix.sessions[nextPlan].arrivalTick == t) {
        const soak::SessionPlan& plan = mix.sessions[nextPlan];
        const ClientClass& cc = classes[plan.deviceClass];
        const std::uint64_t sessionId = planOf.size();
        core::CachedTrackPtr track;
        {
          Ledger::Scope s(ledger, Stage::kLookup, sessionId);
          track = server.annotationFor(profiles[plan.contentProfile].name,
                                       mix.tenants[plan.tenant]);
        }
        stream::FleetSessionConfig s;
        s.clipName = profiles[plan.contentProfile].name;
        s.caps = cc.caps;
        s.tenantCfg = mix.tenants[plan.tenant];
        s.bandwidth = linkFor(cc.cls, plan.bandwidthScale);
        s.startupBufferSeconds = cc.cls.startupBufferSeconds;
        s.bufferCapacitySeconds = cc.cls.bufferCapacitySeconds;
        if (traced) serveReplay.run(ledger, server, s, track, sessionId, result);
        std::uint64_t id = 0;
        {
          Ledger::Scope join(ledger, Stage::kJoin, sessionId);
          id = sched.join(s);
          e2e.joinMs.add(join.stop() / 1e6);
        }
        result.check(id == sessionId, "session ids are dense");
        planOf.push_back(static_cast<std::uint32_t>(nextPlan));
        if (plan.leaveAfterTicks != 0) {
          leavesAt.emplace(t + plan.leaveAfterTicks, id);
        }
        if (plan.faultSeed != 0) {
          pending.push_back(
              {id, static_cast<std::uint32_t>(nextPlan), plan.faultSeed});
        }
        ++nextPlan;
      }
      for (auto [it, end] = leavesAt.equal_range(t); it != end; ++it) {
        Ledger::Scope s(ledger, Stage::kLeave, it->second);
        (void)sched.leave(it->second);
      }
      leavesAt.erase(t);
      {
        Ledger::Scope s(ledger, Stage::kTick, 0, activeSessions(ledger, sched));
        sched.tick();
      }
      // Fault arm: sessions run their injected decode as they terminate.
      std::size_t kept = 0;
      for (const Pending& p : pending) {
        const stream::SessionPhase phase = sched.report(p.id).phase;
        if (phase == stream::SessionPhase::kCompleted ||
            phase == stream::SessionPhase::kLeft) {
          runFaultArm(p.plan, p.seed, p.id);
        } else {
          pending[kept++] = p;
        }
      }
      pending.resize(kept);
      ticks = t + 1;
      e2e.segmentSeconds.add(cpuSecondsSince(segmentStartNs));
      if (nextPlan == mix.sessions.size() && sched.allSessionsTerminal()) {
        break;
      }
    }
    timedSegment(e2e, [&] {
      for (const Pending& p : pending) runFaultArm(p.plan, p.seed, p.id);
    });

    // --- Correctness gate: the soak driver's deterministic counters -------
    const stream::FleetStats fs = sched.stats();
    const core::TrackCacheStats cs = cache.stats();
    if (traced) {
      tracedCache = cs;
      faultSessions += static_cast<double>(faults);
      faultDecodeOk += static_cast<double>(decodeOk);
    }
    const soak::FleetSoakReport& ref = reference;
    result.check(fs.sessionsJoined == ref.sessionsJoined &&
                     fs.sessionsCompleted == ref.sessionsCompleted &&
                     fs.sessionsLeft == ref.sessionsLeft &&
                     fs.sessionsCompleted + fs.sessionsLeft ==
                         ref.sessionsPlanned,
                 "joined / completed / left == soak report");
    result.check(fs.uniqueStreams == ref.uniqueStreams,
                 "unique streams == soak report");
    result.check(cs.hits == ref.cacheHits && cs.misses == ref.cacheMisses &&
                     cs.fills == ref.cacheFills,
                 "cache hits / misses / fills == soak report");
    result.check(fs.bytesDelivered == ref.bytesDelivered &&
                     fs.stallEvents == ref.stallEvents && ticks == ref.ticks,
                 "bytes delivered / stall events / ticks == soak report");
    result.check(faults == ref.faultSessions &&
                     mutations == ref.faultMutationsApplied &&
                     decodeOk == ref.faultDecodeOk &&
                     fallbacks == ref.faultFallbacks &&
                     undecodable == ref.faultUndecodable,
                 "fault-arm outcomes == soak report");
    result.check(throws == 0 && ref.faultThrows == 0,
                 "ClientSession::receive never throws");

    // Savings roll-up exactly as the soak driver does it (per session, in
    // id order), after the counters above are read.
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             std::pair<double, double>>
        cellWatts;
    double savedJ = 0.0, fullJ = 0.0, played = 0.0;
    for (std::uint64_t id = 1; id < planOf.size(); ++id) {
      const soak::SessionPlan& plan = mix.sessions[planOf[id]];
      const auto key =
          std::make_tuple(plan.tenant, plan.deviceClass, plan.contentProfile);
      auto it = cellWatts.find(key);
      if (it == cellWatts.end()) {
        const ClientClass& cc = classes[plan.deviceClass];
        const core::CachedTrackPtr track = server.annotationFor(
            profiles[plan.contentProfile].name, mix.tenants[plan.tenant]);
        it = cellWatts
                 .emplace(key, savedWatts(core::buildSchedule(
                                              track->track, cc.caps.qualityIndex,
                                              cc.device,
                                              cc.caps.minBacklightLevel),
                                          cc.device))
                 .first;
      }
      const double seconds = sched.report(id).playedSeconds;
      savedJ += it->second.first * seconds;
      fullJ += it->second.second * seconds;
      played += seconds;
    }
    Deterministic det;
    det.savedPct = fullJ > 0.0 ? 100.0 * savedJ / fullJ : 0.0;
    det.stallRatio = played > 0.0 ? fs.stallSeconds / played : 0.0;
    result.check(std::abs(det.savedPct - 100.0 * ref.backlightSavingsFraction) <=
                     1e-9 * det.savedPct,
                 "backlight savings == soak report");

    // Every distinct stream decodes intact, on a timed receive: with the
    // fault arm's few playable receives alone, the receive quantiles would
    // hinge on which damaged streams the seed picked.  On the first
    // iteration, PSNR against the compensated frames that were encoded, and
    // bytes per frame over distinct streams.
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
    double bytes = 0.0, frames = 0.0;
    PsnrMean psnr;
    for (std::uint64_t id = 1; id < planOf.size(); ++id) {
      const soak::SessionPlan& plan = mix.sessions[planOf[id]];
      if (!seen.emplace(plan.contentProfile, plan.tenant, plan.deviceClass)
               .second) {
        continue;
      }
      const ClientClass& cc = classes[plan.deviceClass];
      const std::string& name = profiles[plan.contentProfile].name;
      const std::vector<std::uint8_t> stream =
          server.serve(name, cc.caps, mix.tenants[plan.tenant]);
      stream::ReceivedStream r;
      {
        Ledger::Scope s(ledger, Stage::kReceive, id);
        r = cc.client->receive(stream);
        s.setUnits(static_cast<double>(r.video.frames.size()));
        e2e.receiveMs.add(s.stop() / 1e6);
      }
      result.check(r.ok && !r.annotationFallback,
                   "intact stream decodes without fallback (" + name + ")");
      if (iter != 0) continue;
      bytes += static_cast<double>(stream.size());
      frames += static_cast<double>(r.video.frames.size());
      const media::VideoClip compensated = core::compensateClip(
          server.entry(name).original,
          server.annotationFor(name, mix.tenants[plan.tenant])->track,
          cc.caps.qualityIndex, cc.device, cc.caps.minBacklightLevel);
      result.check(psnr.add(compensated, r.video),
                   "decoded frame count == compensated frame count");
    }
    result.check(seen.size() == ref.uniqueStreams,
                 "distinct streams == soak report");
    if (iter == 0) {
      det.bytesPerFrame = frames > 0.0 ? bytes / frames : 0.0;
      first = det;
      e2e.det = det;
      e2e.psnrDb = psnr.mean();
      printDeterministic(det, e2e.psnrDb);
    }
    det.bytesPerFrame = first->bytesPerFrame;
    result.check(det == *first, "deterministic metrics repeat exactly");
    e2e.iteration(mix.sessions.size());
  });

  appendEndToEnd(e2e, result);
  if (opts.trace) {
    appendPerLayer(
        ledger, run,
        {{"media.encode_bytes_per_frame", "bytes",
          serveReplay.encodedFrames > 0.0
              ? serveReplay.encodedBytes / serveReplay.encodedFrames
              : 0.0},
         {"core.track_cache.hit_rate", "ratio", tracedCache.hitRate()},
         {"core.track_cache.fills", "count",
          static_cast<double>(tracedCache.fills)},
         {"core.track_cache.single_flight_waits", "count",
          static_cast<double>(tracedCache.singleFlightWaits)},
         {"stream.client.fallbacks", "count", receiveCounts.fallbacks},
         {"stream.client.undecodable", "count", receiveCounts.undecodable},
         {"fault.decode_ok_frac", "ratio",
          faultSessions > 0.0 ? faultDecodeOk / faultSessions : 0.0}},
        result);
    writeTraceArtifacts(opts, recorder, ledger, run);
  }
  return result;
}

// ---------------------------------------------------------------------------
// proxy_live: a live conference.  24 raw sources (serveRaw) at 160x120,
// each fanned out in turn by ProxyNode::transcodeFanout to 12 subscribers
// across the four capability groups; every subscriber runs
// ClientSession::receive.
// ---------------------------------------------------------------------------
Result runProxyLive(const Options& opts) {
  const int width = opts.tiny ? 64 : 160;
  const int height = opts.tiny ? 48 : 120;
  const std::size_t sourceCount = opts.tiny ? 2 : 24;
  const std::size_t clientCount = opts.tiny ? 8 : 12;
  constexpr int kSetups = 5;
  constexpr double kLinkScale = 0.05;
  // Live segments of a fixed 9 frames (0.75 s at 12 fps), two or three per
  // paper clip, each cut from several of its clip's scenes (spliceScenes),
  // so the seed varies the content but not the amount of work.
  constexpr std::size_t kSegmentFrames = 9;
  const std::vector<media::PaperClip> picks = media::allPaperClips();
  std::vector<media::VideoClip> sources;
  for (std::size_t i = 0; i < sourceCount; ++i) {
    const media::PaperClip pick = picks[i % picks.size()];
    const std::uint64_t seed = mix64(opts.seed * 1000 + i) | 1;
    media::VideoClip clip = spliceScenes(kScenesPerClip, [&](std::size_t s) {
      // One 1.4 s scene of the clip's content mix.
      const std::uint64_t scene = sceneSeed(seed, s);
      const double seconds =
          media::paperClipProfile(pick, 1.0, width, height, scene)
              .durationSeconds();
      media::VideoClip render = media::generateClip(media::paperClipProfile(
          pick, 1.4 / seconds, width, height, scene));
      if (render.frames.size() < kSegmentFrames) {
        throw std::logic_error("live segment shorter than its frame count");
      }
      render.frames.resize(kSegmentFrames);
      return render;
    });
    clip.name = "live-" + std::to_string(i) + "-" + media::paperClipName(pick);
    sources.push_back(std::move(clip));
  }
  std::vector<ClientClass> classes =
      makeClientClasses(deviceClassesFor(kLinkScale));

  // Subscribers split across the classes by class weight (stratified, so
  // every group is live at any size).
  struct Subscriber {
    std::size_t group;
    double bandwidthScale;
  };
  std::vector<Subscriber> subscribers;
  std::vector<stream::ClientCapabilities> caps;
  double totalWeight = 0.0;
  for (const ClientClass& cc : classes) totalWeight += cc.cls.weight;
  for (std::size_t i = 0; i < clientCount; ++i) {
    double x = (static_cast<double>(i) + 0.5) /
               static_cast<double>(clientCount) * totalWeight;
    std::size_t g = 0;
    while (g + 1 < classes.size() && (x -= classes[g].cls.weight) >= 0.0) ++g;
    subscribers.push_back({g, linkJitter(i, classes[g].cls.bandwidthJitter)});
    caps.push_back(classes[g].caps);
  }

  Result result;
  EndToEnd e2e;
  telemetry::TraceRecorder recorder({.eventsPerThread = 1u << 18});
  Ledger ledger(opts.trace ? &recorder : nullptr);

  // --- Set-up: catalog ingest + the upstream raw encode, several times ----
  std::vector<std::vector<std::uint8_t>> raws;
  for (int k = 0; k < kSetups; ++k) {
    std::vector<media::VideoClip> batch = sources;  // input copy, untimed
    const double setupStart = processCpuSeconds();
    core::AnnotatorConfig serverCfg;
    serverCfg.threads = opts.ingestThreads;
    stream::MediaServer server(serverCfg);
    server.addClips(std::move(batch));
    raws.clear();
    for (const media::VideoClip& clip : sources) {
      raws.push_back(server.serveRaw(clip.name));
    }
    e2e.setupSeconds.push_back(processCpuSeconds() - setupStart);
  }
  const stream::ProxyNode proxy;

  // --- Gate and deterministic metrics, on an untimed first pass over the
  // sources (which also warms the process up): every group's stream decodes
  // intact, PSNR against the compensated frames, savings for every
  // subscriber, and on the first source each group's stream == a
  // standalone transcode for one member.  Timed passes must reproduce the
  // first pass's bytes.
  std::vector<std::vector<std::vector<std::uint8_t>>> expected(sourceCount);
  double bytes = 0.0, frames = 0.0, savedJ = 0.0, fullJ = 0.0;
  PsnrMean psnr;
  // Each group's video sections of every source, back to back: a
  // subscriber watches the conference's segments in turn over one link.
  std::vector<media::EncodedClip> watched(classes.size());
  for (std::size_t si = 0; si < sourceCount; ++si) {
    stream::FanoutResult fan = proxy.transcodeFanout(raws[si], caps);
    const media::VideoClip base =
        media::decodeClip(stream::demux(raws[si]).video);
    // Per group: its stream's decode, schedule savings and video section
    // (every member of a group receives the same bytes).
    struct Group {
      bool done = false;
      std::pair<double, double> watts;
      double seconds = 0.0;
      media::EncodedClip video;
    };
    std::vector<Group> groups(classes.size());
    for (std::size_t i = 0; i < subscribers.size(); ++i) {
      const std::size_t g = subscribers[i].group;
      const ClientClass& cc = classes[g];
      Group& group = groups[g];
      if (!group.done) {
        group.done = true;
        const stream::ReceivedStream r = cc.client->receive(fan.streams[i]);
        result.check(r.ok && !r.annotationFallback,
                     "live stream decodes without fallback");
        if (si == 0) {
          result.check(fan.streams[i] == proxy.transcode(raws[si], caps[i]),
                       "fan-out stream == standalone transcode (group " +
                           std::to_string(g) + ")");
        }
        result.check(psnr.add(core::compensateClip(base, r.track,
                                                   cc.caps.qualityIndex,
                                                   cc.device,
                                                   cc.caps.minBacklightLevel),
                              r.video),
                     "decoded frame count == compensated frame count");
        bytes += static_cast<double>(fan.streams[i].size());
        frames += static_cast<double>(r.video.frames.size());
        group.watts = savedWatts(r.schedule, cc.device);
        group.seconds = r.video.durationSeconds();
        media::EncodedClip video = stream::demux(fan.streams[i]).video;
        if (si == 0) {
          watched[g] = std::move(video);
        } else {
          std::move(video.frames.begin(), video.frames.end(),
                    std::back_inserter(watched[g].frames));
        }
      }
      savedJ += group.watts.first * group.seconds;
      fullJ += group.watts.second * group.seconds;
    }
    expected[si] = std::move(fan.streams);
  }
  // Link stalls: one session per subscriber over every segment.  Short
  // sessions would each hinge on their one segment's bitrate against the
  // startup buffer, and the few heaviest segments would set the ratio.
  double stallSeconds = 0.0, playedSeconds = 0.0;
  const stream::Link lastHop = stream::makeReferencePath().lastHop();
  for (const Subscriber& sub : subscribers) {
    const ClientClass& cc = classes[sub.group];
    const media::EncodedClip& video = watched[sub.group];
    stream::SessionSimConfig sim;
    sim.startupBufferSeconds = cc.cls.startupBufferSeconds;
    sim.bufferCapacitySeconds = cc.cls.bufferCapacitySeconds;
    const stream::SessionSimResult out = stream::simulateSession(
        video, lastHop, linkFor(cc.cls, sub.bandwidthScale), sim);
    result.check(out.completed, "live session plays to the end");
    stallSeconds += out.rebufferTotalSeconds;
    playedSeconds += static_cast<double>(video.frames.size()) / video.fps;
  }
  e2e.det.savedPct = fullJ > 0.0 ? 100.0 * savedJ / fullJ : 0.0;
  e2e.det.stallRatio = playedSeconds > 0.0 ? stallSeconds / playedSeconds : 0.0;
  e2e.det.bytesPerFrame = frames > 0.0 ? bytes / frames : 0.0;
  e2e.psnrDb = psnr.mean();
  printDeterministic(e2e.det, e2e.psnrDb);

  // --- Timed rounds: one source's fan-out, then every subscriber decodes --
  // A round is one timed segment.  It runs pinned to a vCPU that moves on
  // by one from pass to pass, so every source meets every vCPU over a run.
  // Every subscriber waits for the whole fan-out: that is its time to
  // first byte.  The join quantiles rest on few fan-outs (p99 is the
  // slowest source's), so an untraced round fans its source out a second
  // time, off the segment's clock, and records the faster of the two: a
  // source's join time gets twice as many repeats to meet a quiet moment.
  double encodedBytes = 0.0, encodedFrames = 0.0, uniqueRenders = 0.0;
  ReceiveCounts receiveCounts;
  const auto runRound = [&](std::uint64_t round, std::size_t si,
                            bool traced) {
    const WindowPin pin(round / sourceCount + si);
    const double timedStartNs = threadCpuNs();
    stream::FanoutResult fan;
    double fanoutMs = 0.0;
    {
      Ledger::Scope s(ledger, Stage::kFanout, round,
                      static_cast<double>(caps.size()));
      fan = proxy.transcodeFanout(raws[si], caps);
      fanoutMs = s.stop() / 1e6;
    }
    std::vector<stream::ReceivedStream> received(subscribers.size());
    for (std::size_t i = 0; i < subscribers.size(); ++i) {
      Ledger::Scope s(ledger, Stage::kReceive, i);
      received[i] = classes[subscribers[i].group].client->receive(
          fan.streams[i]);
      s.setUnits(static_cast<double>(received[i].video.frames.size()));
      e2e.receiveMs.add(s.stop() / 1e6);
    }
    e2e.segmentSeconds.add(cpuSecondsSince(timedStartNs));
    if (!traced) {
      const double againStartNs = threadCpuNs();
      const stream::FanoutResult again = proxy.transcodeFanout(raws[si], caps);
      fanoutMs = std::min(fanoutMs, (threadCpuNs() - againStartNs) / 1e6);
      result.check(again.streams == expected[si],
                   "fan-out bytes repeat exactly");
    }
    for (std::size_t i = 0; i < subscribers.size(); ++i) {
      e2e.joinMs.add(fanoutMs);
    }
    for (const stream::ReceivedStream& r : received) {
      result.check(r.ok && !r.annotationFallback,
                   "live stream decodes without fallback");
    }
    result.check(fan.streams == expected[si], "fan-out bytes repeat exactly");
    if (!traced) return;

    // Replay the fan-out layer by layer: decode + causal profile/annotate
    // once, then per capability group compensate -> encode -> mux.
    uniqueRenders = static_cast<double>(fan.uniqueRenders);
    stream::DemuxedStream raw;
    {
      Ledger::Scope s(ledger, Stage::kDemux, round);
      raw = stream::demux(raws[si]);
    }
    media::VideoClip base;
    {
      Ledger::Scope s(ledger, Stage::kDecode, round,
                      static_cast<double>(raw.video.frames.size()));
      base = media::decodeClip(raw.video);
    }
    const double n = static_cast<double>(base.frames.size());
    std::vector<media::FrameStats> stats;
    {
      Ledger::Scope s(ledger, Stage::kProfile, round, n);
      stats = media::profileClip(base);
    }
    core::AnnotationTrack track;
    {
      Ledger::Scope s(ledger, Stage::kEngine, round, n);
      track = core::annotate(base.name, base.fps, stats);
    }
    {
      Ledger::Scope s(ledger, Stage::kTrackEncode, round);
      s.setUnits(static_cast<double>(core::encodeTrack(track).size()));
    }
    result.check(track == received.front().track,
                 "replayed causal annotation == fan-out track");
    std::set<std::size_t> rendered;
    for (std::size_t i = 0; i < subscribers.size(); ++i) {
      {
        Ledger::Scope s(ledger, Stage::kCapsEncode, i);
        (void)stream::encodeCapabilities(caps[i]);
      }
      const ClientClass& cc = classes[subscribers[i].group];
      if (rendered.insert(subscribers[i].group).second) {
        media::VideoClip compensated;
        {
          Ledger::Scope s(ledger, Stage::kCompensate, i, n);
          compensated = core::compensateClip(base, track, cc.caps.qualityIndex,
                                             cc.device,
                                             cc.caps.minBacklightLevel);
        }
        media::EncodedClip encoded;
        {
          Ledger::Scope s(ledger, Stage::kEncode, i, n);
          encoded = media::encodeClip(compensated);
        }
        encodedBytes += static_cast<double>(encoded.totalBytes());
        encodedFrames += n;
        std::vector<std::uint8_t> muxed;
        {
          Ledger::Scope s(ledger, Stage::kMux, i);
          muxed = stream::mux(encoded, &track);
        }
        result.check(muxed == fan.streams[i],
                     "recomposed fan-out bytes == ProxyNode stream");
      }
      receiveCounts.add(received[i]);
      replayReceive(ledger, cc, fan.streams[i], received[i], i, result);
    }
  };
  // One iteration is a whole pass over the sources, so every source gets
  // the same number of chances at its fastest round.
  const TracedRun run = drive(opts, ledger, [&](std::uint64_t pass,
                                                bool traced) {
    for (std::size_t si = 0; si < sourceCount; ++si) {
      runRound(pass * sourceCount + si, si, traced);
    }
    e2e.iteration(subscribers.size() * sourceCount);
  });

  appendEndToEnd(e2e, result);
  if (opts.trace) {
    appendPerLayer(
        ledger, run,
        {{"media.encode_bytes_per_frame", "bytes",
          encodedFrames > 0.0 ? encodedBytes / encodedFrames : 0.0},
         {"stream.proxy.unique_renders", "count", uniqueRenders},
         {"stream.client.fallbacks", "count", receiveCounts.fallbacks},
         {"stream.client.undecodable", "count", receiveCounts.undecodable}},
        result);
    writeTraceArtifacts(opts, recorder, ledger, run);
  }
  return result;
}

}  // namespace servebench
