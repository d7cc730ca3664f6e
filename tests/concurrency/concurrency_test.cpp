// Thread-pool primitives and the parallel annotation pipeline's determinism
// guarantee: for ANY thread count the parallel path must be bit-identical to
// the serial one (sharded histograms merged in frame order, slot writes, no
// atomics on bins).  These tests carry the `concurrency` ctest label so
// sanitized builds (-DANNO_SANITIZE=thread) can target them directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "concurrency/parallel.h"
#include "concurrency/thread_pool.h"
#include "core/annotate.h"
#include "media/clipgen.h"
#include "stream/server.h"

namespace anno {
namespace {

using core::AnnotationTrack;
using core::AnnotatorConfig;

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(concurrency::resolveThreads(0), 1u);
  EXPECT_EQ(concurrency::resolveThreads(1), 1u);
  EXPECT_EQ(concurrency::resolveThreads(7), 7u);
}

TEST(ThreadPool, ConcurrencyCountsCaller) {
  concurrency::ThreadPool serial(1);
  EXPECT_EQ(serial.concurrency(), 1u);
  concurrency::ThreadPool four(4);
  EXPECT_EQ(four.concurrency(), 4u);
}

TEST(ThreadPool, RunChunkedExecutesEveryChunkExactlyOnce) {
  concurrency::ThreadPool pool(4);
  constexpr std::size_t kChunks = 250;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.runChunked(kChunks, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPool, RunChunkedZeroChunksIsANoop) {
  concurrency::ThreadPool pool(2);
  bool ran = false;
  pool.runChunked(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RunChunkedRethrowsLowestIndexedChunkException) {
  concurrency::ThreadPool pool(4);
  // Repeat to give scheduling a chance to reorder; the *observed* exception
  // must always come from the lowest-indexed throwing chunk.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      pool.runChunked(32, [&](std::size_t c) {
        if (c == 5 || c == 11 || c == 29) {
          throw std::runtime_error(std::to_string(c));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
  }
}

TEST(Parallel, ParallelForCoversTheRange) {
  concurrency::ThreadPool pool(4);
  constexpr std::size_t kN = 1337;
  std::vector<int> marks(kN, 0);
  concurrency::parallelFor(&pool, kN, 16,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               ++marks[i];
                             }
                           });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0),
            static_cast<int>(kN));
  EXPECT_EQ(*std::min_element(marks.begin(), marks.end()), 1);
}

TEST(Parallel, NullPoolRunsSerially) {
  std::size_t calls = 0;
  concurrency::parallelFor(nullptr, 100, 10,
                           [&](std::size_t begin, std::size_t end) {
                             ++calls;
                             EXPECT_EQ(begin, 0u);
                             EXPECT_EQ(end, 100u);
                           });
  EXPECT_EQ(calls, 1u);
}

TEST(Parallel, NestedParallelismOnOnePoolCompletes) {
  // A pool task that itself fans out on the same pool must not deadlock:
  // the caller participates, so nested calls degrade to serial at worst.
  concurrency::ThreadPool pool(4);
  std::vector<std::uint64_t> sums(8, 0);
  concurrency::parallelFor(&pool, sums.size(), 1,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               // Per-chunk partial sums, folded in order.
                               std::vector<std::uint64_t> partial(
                                   concurrency::chunkCount(1000, 50), 0);
                               concurrency::parallelFor(
                                   &pool, 1000, 50,
                                   [&](std::size_t b, std::size_t e) {
                                     for (std::size_t v = b; v < e; ++v) {
                                       partial[b / 50] += v;
                                     }
                                   });
                               for (const std::uint64_t p : partial) {
                                 sums[i] += p;
                               }
                             }
                           });
  for (const std::uint64_t s : sums) EXPECT_EQ(s, 999u * 1000u / 2u);
}

// ---------------------------------------------------------------------------
// Determinism of the annotation pipeline across thread counts.

media::VideoClip trailerClip() {
  return media::generatePaperClip(media::PaperClip::kTheMovie, 0.15, 96, 72);
}

media::VideoClip creditsClip() {
  media::ClipProfile profile;
  profile.name = "credits";
  profile.width = 96;
  profile.height = 72;
  profile.fps = 12.0;
  profile.seed = 3;
  profile.scenes.push_back(media::creditsScene(2.0));
  return media::generateClip(profile);
}

TEST(Determinism, ProfileClipBitIdenticalAcrossThreadCounts) {
  const media::VideoClip clip = trailerClip();
  const std::vector<media::FrameStats> serial = media::profileClip(clip);
  for (unsigned threads : {1u, 2u, 8u}) {
    concurrency::ThreadPool pool(threads);
    EXPECT_EQ(media::profileClip(clip, &pool), serial)
        << threads << " threads";
  }
}

TEST(Determinism, AnnotateClipBitIdenticalAcrossThreadCounts) {
  const media::VideoClip clip = trailerClip();
  AnnotatorConfig serialCfg;
  serialCfg.threads = 1;
  const AnnotationTrack serial = annotateClip(clip, serialCfg);
  for (unsigned threads : {2u, 8u}) {
    AnnotatorConfig cfg = serialCfg;
    cfg.threads = threads;
    EXPECT_EQ(annotateClip(clip, cfg), serial) << threads << " threads";
  }
}

TEST(Determinism, HistogramEmdDetectorPathIsThreadCountInvariant) {
  const media::VideoClip clip = trailerClip();
  AnnotatorConfig cfg;
  cfg.detector = core::SceneDetector::kHistogramEmd;
  cfg.threads = 1;
  const AnnotationTrack serial = annotateClip(clip, cfg);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(annotateClip(clip, cfg), serial) << threads << " threads";
  }
}

TEST(Determinism, CreditsProtectionPathIsThreadCountInvariant) {
  const media::VideoClip clip = creditsClip();
  AnnotatorConfig cfg;
  cfg.protectCredits = true;
  cfg.threads = 1;
  const AnnotationTrack serial = annotateClip(clip, cfg);
  // Sanity: the credits heuristic actually fired (ceiling above the text
  // luminance, which an unprotected 20% budget would clip away).
  ASSERT_FALSE(serial.scenes.empty());
  EXPECT_GT(static_cast<int>(serial.scenes[0].safeLuma.back()), 200);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(annotateClip(clip, cfg), serial) << threads << " threads";
  }
}

TEST(Determinism, PerFrameGranularityIsThreadCountInvariant) {
  const media::VideoClip clip = trailerClip();
  AnnotatorConfig cfg;
  cfg.granularity = core::Granularity::kPerFrame;
  cfg.threads = 1;
  const AnnotationTrack serial = annotateClip(clip, cfg);
  EXPECT_EQ(serial.scenes.size(), clip.frameCount());
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(annotateClip(clip, cfg), serial) << threads << " threads";
  }
}

TEST(Determinism, ZeroMeansHardwareConcurrency) {
  const media::VideoClip clip = trailerClip();
  AnnotatorConfig serialCfg;
  serialCfg.threads = 1;
  AnnotatorConfig hwCfg;
  hwCfg.threads = 0;  // shared hardware-sized pool
  EXPECT_EQ(annotateClip(clip, hwCfg), annotateClip(clip, serialCfg));
}

TEST(Batch, AnnotateClipsMatchesPerClipAnnotation) {
  std::vector<media::VideoClip> clips;
  clips.push_back(trailerClip());
  clips.push_back(creditsClip());
  clips.push_back(
      media::generatePaperClip(media::PaperClip::kIceAge, 0.1, 96, 72));

  AnnotatorConfig cfg;
  cfg.protectCredits = true;
  cfg.threads = 1;
  std::vector<AnnotationTrack> serial;
  for (const media::VideoClip& clip : clips) {
    serial.push_back(annotateClip(clip, cfg));
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    AnnotatorConfig batchCfg = cfg;
    batchCfg.threads = threads;
    std::vector<std::vector<media::FrameStats>> stats;
    const std::vector<AnnotationTrack> tracks =
        core::annotateClips(clips, batchCfg, &stats);
    ASSERT_EQ(tracks.size(), clips.size());
    ASSERT_EQ(stats.size(), clips.size());
    for (std::size_t i = 0; i < clips.size(); ++i) {
      EXPECT_EQ(tracks[i], serial[i]) << "clip " << i << ", " << threads
                                      << " threads";
      EXPECT_EQ(stats[i], media::profileClip(clips[i]))
          << "clip " << i << ", " << threads << " threads";
    }
  }
}

TEST(Batch, AnnotateClipsPropagatesValidationErrors) {
  std::vector<media::VideoClip> clips(2);
  clips[0] = trailerClip();
  clips[1].name = "empty";  // no frames -> validateClip throws
  AnnotatorConfig cfg;
  cfg.threads = 4;
  EXPECT_THROW((void)core::annotateClips(clips, cfg), std::invalid_argument);
}

TEST(Batch, MediaServerBatchIngestMatchesSerialIngest) {
  std::vector<media::VideoClip> clips;
  clips.push_back(trailerClip());
  clips.push_back(
      media::generatePaperClip(media::PaperClip::kShrek2, 0.1, 96, 72));

  AnnotatorConfig serialCfg;
  serialCfg.threads = 1;
  stream::MediaServer serialServer(serialCfg);
  for (const media::VideoClip& clip : clips) serialServer.addClip(clip);

  AnnotatorConfig parallelCfg;
  parallelCfg.threads = 8;
  stream::MediaServer batchServer(parallelCfg);
  batchServer.addClips(clips);

  ASSERT_EQ(batchServer.catalog(), serialServer.catalog());
  for (const std::string& name : serialServer.catalog()) {
    EXPECT_EQ(batchServer.entry(name).track, serialServer.entry(name).track);
    EXPECT_EQ(batchServer.entry(name).sketches,
              serialServer.entry(name).sketches);
    EXPECT_EQ(batchServer.entry(name).original.frames,
              serialServer.entry(name).original.frames);
  }
}

}  // namespace
}  // namespace anno
