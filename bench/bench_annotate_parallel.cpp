// Serial vs parallel annotation throughput (the perf story behind the
// src/concurrency module): per-clip annotateClip at 1/2/4/8 threads, plus
// the batch annotateClips path a production server uses to ingest many
// clips concurrently.  Prints the usual table/CSV and emits a
// machine-readable BENCH_annotate_parallel.json at the repo root.
//
// Every parallel run is verified bit-identical to the serial tracks before
// its numbers are reported -- a run that diverges aborts with EXIT_FAILURE.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "concurrency/thread_pool.h"
#include "core/annotate.h"
#include "media/clipgen.h"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Result {
  unsigned threads = 1;
  double perClipSeconds = 0.0;  // annotateClip over every clip, one at a time
  double batchSeconds = 0.0;    // one annotateClips call over the whole set
  bool identical = false;       // tracks match the serial reference
};

}  // namespace

int main() {
  using namespace anno;

  bench::printHeader(
      "Parallel annotation pipeline: serial vs thread-pool throughput");

  // Workload: the ten synthetic paper trailers.  Scale/resolution keep the
  // whole sweep in seconds while leaving enough frames per clip for the
  // pool to chew on.
  const double kScale = 0.25;
  const int kWidth = 160, kHeight = 120;
  std::vector<media::VideoClip> clips;
  std::size_t totalFrames = 0;
  for (const media::PaperClip pc : media::allPaperClips()) {
    clips.push_back(media::generatePaperClip(pc, kScale, kWidth, kHeight));
    totalFrames += clips.back().frameCount();
  }
  std::printf("workload: %zu clips, %zu frames total (%dx%d)\n", clips.size(),
              totalFrames, kWidth, kHeight);

  // Serial reference (threads = 1): both the baseline time and the ground
  // truth every parallel run must reproduce byte-for-byte.
  core::AnnotatorConfig serialCfg;
  serialCfg.threads = 1;
  std::vector<core::AnnotationTrack> reference;
  const Clock::time_point serialStart = Clock::now();
  for (const media::VideoClip& clip : clips) {
    reference.push_back(core::annotateClip(clip, serialCfg));
  }
  const double serialSeconds = secondsSince(serialStart);

  const auto bestOf = [](int reps, const auto& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const Clock::time_point start = Clock::now();
      fn();
      best = std::min(best, secondsSince(start));
    }
    return best;
  };

  std::vector<Result> results;
  bool allIdentical = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::AnnotatorConfig cfg;
    cfg.threads = threads;
    Result res;
    res.threads = threads;

    std::vector<core::AnnotationTrack> perClip;
    res.perClipSeconds = bestOf(3, [&] {
      perClip.clear();
      for (const media::VideoClip& clip : clips) {
        perClip.push_back(core::annotateClip(clip, cfg));
      }
    });
    std::vector<core::AnnotationTrack> batch;
    res.batchSeconds = bestOf(3, [&] { batch = core::annotateClips(clips, cfg); });

    res.identical = perClip == reference && batch == reference;
    allIdentical = allIdentical && res.identical;
    results.push_back(res);
  }

  bench::Table table({"threads", "per-clip frames/s", "batch frames/s",
                      "batch clips/s", "speedup vs serial", "bit-identical"});
  for (const Result& r : results) {
    table.addRow({std::to_string(r.threads),
                  bench::fmt(static_cast<double>(totalFrames) / r.perClipSeconds, 0),
                  bench::fmt(static_cast<double>(totalFrames) / r.batchSeconds, 0),
                  bench::fmt(static_cast<double>(clips.size()) / r.batchSeconds, 1),
                  bench::fmt(serialSeconds / r.batchSeconds, 2),
                  r.identical ? "yes" : "NO"});
  }
  table.print();
  table.printCsv("annotate_parallel");
  std::printf("\nserial reference: %.3f s (%.0f frames/s)\n", serialSeconds,
              static_cast<double>(totalFrames) / serialSeconds);
  const unsigned hw = concurrency::resolveThreads(0);
  std::printf("hardware threads: %u%s\n", hw,
              hw < 4 ? "  (speedup is capped by the host; determinism still "
                       "verified)"
                     : "");

  bench::JsonReport json;
  json.object("workload")
      .field("clips", clips.size()).field("frames", totalFrames)
      .field("width", kWidth).field("height", kHeight).end();
  json.field("hardware_threads", hw).field("serial_seconds", serialSeconds);
  json.array("runs");
  for (const Result& r : results) {
    json.object()
        .field("threads", r.threads)
        .field("per_clip_seconds", r.perClipSeconds)
        .field("batch_seconds", r.batchSeconds)
        .field("per_clip_frames_per_sec", totalFrames / r.perClipSeconds)
        .field("batch_frames_per_sec", totalFrames / r.batchSeconds)
        .field("batch_clips_per_sec", clips.size() / r.batchSeconds)
        .field("speedup_vs_serial", serialSeconds / r.batchSeconds)
        .field("bit_identical", r.identical).end();
  }
  json.write("BENCH_annotate_parallel.json");

  if (!allIdentical) {
    std::fprintf(stderr,
                 "FATAL: parallel annotation diverged from the serial path\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
