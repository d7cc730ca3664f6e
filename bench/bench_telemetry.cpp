// Telemetry overhead on the engine hot path: the per-frame push cost of
// core::AnnotationEngine with a null observer (the shipping default) vs
// the same loop with an EngineTelemetry observer recording into a live
// telemetry::Registry.  The subsystem's contract is "zero-cost when
// unattached, cheap when attached": this bench quantifies both halves on
// the ten paper trailers and enforces the attached budget --
// instrumented must stay within 2% of the null-observer baseline
// (EXIT_FAILURE otherwise, so CI catches a fattened hot path).
//
// Prints the usual table/CSV and emits BENCH_telemetry.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "media/clipgen.h"
#include "media/video.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace anno;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Run {
  std::string name;
  double seconds = 0.0;   // min over reps
  std::size_t scenes = 0;
};

/// One timed pass of the pure engine push loop (profiling excluded --
/// stats are precomputed) with the given observer attached.
double onePass(const std::vector<media::FrameStats>& stats,
               core::EngineObserver* observer, std::size_t& scenesOut) {
  core::AnnotatorConfig cfg;
  cfg.observer = observer;
  core::AnnotationEngine engine(cfg);
  std::size_t scenes = 0;
  const Clock::time_point start = Clock::now();
  for (const media::FrameStats& fs : stats) {
    if (auto s = engine.push(fs)) ++scenes;
  }
  if (auto s = engine.flush()) ++scenes;
  const double seconds = secondsSince(start);
  scenesOut = scenes;
  return seconds;
}

}  // namespace

int main() {
  bench::printHeader(
      "Telemetry overhead: engine push loop, null vs attached observer");

  // The ten synthetic paper trailers, profiled once up front, so only the
  // push loop is timed.
  const double kScale = 0.25;
  const int kWidth = 160, kHeight = 120;
  std::vector<media::FrameStats> stats;
  for (const media::PaperClip pc : media::allPaperClips()) {
    const media::VideoClip clip =
        media::generatePaperClip(pc, kScale, kWidth, kHeight);
    const std::vector<media::FrameStats> clipStats = media::profileClip(clip);
    stats.insert(stats.end(), clipStats.begin(), clipStats.end());
  }
  std::printf("workload: %zu frames of per-frame statistics (%dx%d)\n",
              stats.size(), kWidth, kHeight);

  // More reps than the online bench, and the two paths run in alternation:
  // the delta under measurement is small, so min-of-reps needs more draws
  // to shake scheduler noise out, and interleaving keeps slow clock /
  // frequency drift from biasing one side.
  const int kReps = 101;
  telemetry::Registry registry;
  core::EngineTelemetry observer(registry);

  Run nullRun{"null observer (default)", 1e300, 0};
  Run instrumented{"EngineTelemetry attached", 1e300, 0};
  // Warm both paths once (page in code + registry) before timing.
  (void)onePass(stats, nullptr, nullRun.scenes);
  (void)onePass(stats, &observer, instrumented.scenes);
  for (int r = 0; r < kReps; ++r) {
    nullRun.seconds =
        std::min(nullRun.seconds, onePass(stats, nullptr, nullRun.scenes));
    instrumented.seconds = std::min(
        instrumented.seconds, onePass(stats, &observer, instrumented.scenes));
  }

  const double frames = static_cast<double>(stats.size());
  const double overhead = instrumented.seconds / nullRun.seconds - 1.0;
  const bool withinBudget = overhead < 0.02;

  bench::Table table({"path", "ns/frame", "frames/s", "scenes", "overhead"});
  for (const Run* r : {&nullRun, &instrumented}) {
    table.addRow({r->name, bench::fmt(1e9 * r->seconds / frames, 1),
                  bench::fmt(frames / r->seconds, 0),
                  std::to_string(r->scenes),
                  bench::pct(r->seconds / nullRun.seconds - 1.0, 2) + "%"});
  }
  table.print();
  table.printCsv("telemetry");

  // Sanity: the attached run must actually have recorded the workload.
  const telemetry::Snapshot snap = telemetry::scrape(registry);
  const std::uint64_t framesSeen =
      snap.counterValue("anno_engine_frames_total");
  std::printf("\nattached runs recorded %llu frames into the registry\n",
              static_cast<unsigned long long>(framesSeen));
  std::printf("instrumented vs null overhead: %s%% (budget < 2%%): %s\n",
              bench::pct(overhead, 2).c_str(),
              withinBudget ? "ok" : "EXCEEDED");

  bench::JsonReport()
      .field("workload_frames", stats.size())
      .field("null_seconds", nullRun.seconds)
      .field("instrumented_seconds", instrumented.seconds)
      .field("null_ns_per_frame", 1e9 * nullRun.seconds / frames)
      .field("instrumented_ns_per_frame", 1e9 * instrumented.seconds / frames)
      .field("overhead_fraction", overhead).field("budget_fraction", 0.02)
      .field("within_budget", withinBudget)
      .write("BENCH_telemetry.json");

  if (instrumented.scenes != nullRun.scenes || framesSeen == 0) {
    std::fprintf(stderr, "FATAL: instrumented run diverged or recorded "
                         "nothing\n");
    return EXIT_FAILURE;
  }
  return withinBudget ? EXIT_SUCCESS : EXIT_FAILURE;
}
