// Frame memory: write-once frames and the per-thread frame pool
// (DESIGN.md sec. 12).  The pool hands back buffers that still hold an
// earlier frame's pixels, so every writer switched to kForOverwrite must
// store every pixel: the no-stale-pixels cases dirty the pool first and
// compare against the same call on a thread whose pool is empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "compensate/compensate.h"
#include "display/emissive.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "media/image.h"

#if defined(__SANITIZE_ADDRESS__)
#define ANNO_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ANNO_TEST_ASAN 1
#endif
#endif

namespace anno::media {
namespace {

constexpr int kW = 160;
constexpr int kH = 120;
constexpr std::size_t kFrameBytes = std::size_t{kW} * kH * sizeof(Rgb8);

/// Runs `f` on a new thread, whose frame pool starts empty.
template <typename F>
void onFreshThread(F f) {
  std::thread(f).join();
}

/// `f()` computed on a new thread.
template <typename F>
auto resultOnFreshThread(F f) {
  decltype(f()) out{};
  std::thread([&] { out = f(); }).join();
  return out;
}

TEST(FramePool, ReusesAReleasedBufferOfTheSameSize) {
  onFreshThread([] {
    const Rgb8* first = nullptr;
    {
      const Image a(kW, kH, kForOverwrite);
      first = a.pixels().data();
    }
    EXPECT_EQ(framePoolRetainedBytes(), kFrameBytes);
    const Image b(kW, kH, kForOverwrite);
    EXPECT_EQ(b.pixels().data(), first);
    EXPECT_EQ(framePoolRetainedBytes(), 0u);
    // Another size does not take it.
    const Image c(kW, kH - 1, kForOverwrite);
    EXPECT_NE(c.pixels().data(), first);
  });
}

TEST(FramePool, BuffersBelowTheFloorBypassThePool) {
  onFreshThread([] {
    { const Image small(32, 24, kForOverwrite); }
    static_assert(32 * 24 * sizeof(Rgb8) < kFramePoolFloorBytes);
    EXPECT_EQ(framePoolRetainedBytes(), 0u);
  });
}

TEST(FramePool, RetainedBytesNeverExceedTheBudget) {
  onFreshThread([] {
    // Twice the budget of live frames in three sizes, then release them.
    std::vector<Image> frames;
    std::size_t live = 0;
    for (int i = 0; live < 2 * kFramePoolBudgetBytes; ++i) {
      frames.emplace_back(kW, kH - (i % 3), kForOverwrite);
      live += frames.back().pixelCount() * sizeof(Rgb8);
    }
    std::size_t peak = 0;
    while (!frames.empty()) {
      frames.pop_back();
      peak = std::max(peak, framePoolRetainedBytes());
      EXPECT_LE(framePoolRetainedBytes(), kFramePoolBudgetBytes);
    }
    EXPECT_GT(peak, kFramePoolBudgetBytes - kFrameBytes);
  });
}

TEST(FramePool, ImageFreedOnAnotherThreadJoinsThatThreadsPool) {
  onFreshThread([] {
    Image frame(kW, kH, Rgb8{1, 2, 3});
    const std::size_t before = framePoolRetainedBytes();
    std::size_t gained = 0;
    std::thread([&] {
      const std::size_t start = framePoolRetainedBytes();
      { const Image dead = std::move(frame); }
      gained = framePoolRetainedBytes() - start;
    }).join();
    EXPECT_EQ(gained, kFrameBytes);
    EXPECT_EQ(framePoolRetainedBytes(), before);
  });
}

TEST(FramePool, ImageOutlivingItsAllocatingThreadIsReleasedHere) {
  onFreshThread([] {
    Image frame;
    std::thread([&] { frame = Image(kW, kH, Rgb8{4, 5, 6}); }).join();
    EXPECT_EQ(frame(kW - 1, kH - 1), (Rgb8{4, 5, 6}));
    frame = Image();
    EXPECT_EQ(framePoolRetainedBytes(), kFrameBytes);
  });
}

/// Holds a frame past its thread's pool: constructed before the thread's
/// first frame allocation, so destroyed after the pool.
struct LateFrame {
  Image frame;
  std::size_t* retainedAfterRelease = nullptr;
  ~LateFrame() {
    frame = Image();
    frame = Image(kW, kH, kForOverwrite);  // allocates without a pool
    frame = Image();
    *retainedAfterRelease = framePoolRetainedBytes();
  }
};

TEST(FramePool, ReleaseAfterThePoolIsGoneGoesToOperatorDelete) {
  std::size_t retained = 1;
  std::thread([&] {
    thread_local LateFrame late;
    late.retainedAfterRelease = &retained;
    late.frame = Image(kW, kH, kForOverwrite);  // constructs the pool
  }).join();
  EXPECT_EQ(retained, 0u);
}

TEST(FramePool, FillConstructorFillsRecycledBuffers) {
  onFreshThread([] {
    { Image dirty(kW, kH, Rgb8{0xA5, 0xA5, 0xA5}); }
    const Image zero(kW, kH);
    for (const Rgb8& p : zero.pixels()) ASSERT_EQ(p, Rgb8{});
    { Image dirty(kW, kH, Rgb8{0xA5, 0xA5, 0xA5}); }
    const Image grey(kW, kH, Rgb8{7, 8, 9});
    for (const Rgb8& p : grey.pixels()) ASSERT_EQ(p, (Rgb8{7, 8, 9}));
  });
}

/// Fills the calling thread's pool with buffers of `byte`, in every size
/// the writers under test allocate.
void dirtyPool(std::uint8_t byte) {
  const std::size_t sizes[] = {
      kFrameBytes,                   // 160x120 frames
      std::size_t{kW} * kH * 3 * 2,  // the codec's Q5 planes
      std::size_t{120} * 90 * 3,     // downscaled frames
      std::size_t{200} * 150 * 3,    // upscaled frames
  };
  std::vector<FrameBuffer<std::uint8_t>> buffers;
  for (int copy = 0; copy < 4; ++copy) {
    for (const std::size_t bytes : sizes) {
      buffers.emplace_back(bytes);
      std::memset(buffers.back().data(), byte, bytes);
    }
  }
  buffers.clear();
  ASSERT_GT(framePoolRetainedBytes(), 4 * kFrameBytes);
}

/// `f` on a thread whose pool holds 0xA5 buffers equals `f` on a fresh
/// thread.  A fresh thread may reuse the arena of an exited one, whose
/// freed memory holds the same 0xA5 bytes, so the call also runs over a
/// pool of 0x5A buffers: an unwritten pixel differs between the two.
template <typename F>
void expectNoStalePixels(F f) {
  const auto withDirtyPool = [&](std::uint8_t byte) {
    return resultOnFreshThread([&] {
      dirtyPool(byte);
      return f();
    });
  };
  const auto dirty = withDirtyPool(0xA5);
  EXPECT_EQ(dirty, resultOnFreshThread(f));
  EXPECT_EQ(dirty, withDirtyPool(0x5A));
}

VideoClip sourceClip() {
  VideoClip clip = generatePaperClip(PaperClip::kIRobot, 0.05, kW, kH);
  clip.frames.resize(6);
  return clip;
}

TEST(FramePoolNoStalePixels, DecodeClip) {
  const VideoClip clip = sourceClip();
  for (const int gop : {1, 3}) {
    const EncodedClip enc = encodeClip(clip, {.quality = 75, .gopLength = gop});
    expectNoStalePixels([&] { return decodeClip(enc).frames; });
    expectNoStalePixels([&] { return encodeClip(clip, {.gopLength = gop})
                                  .frames.back().bytes; });
  }
}

TEST(FramePoolNoStalePixels, Compensation) {
  const Image frame = sourceClip().frames[2];
  expectNoStalePixels([&] { return compensate::contrastEnhance(frame, 1.4); });
  expectNoStalePixels(
      [&] { return compensate::brightnessCompensate(frame, 20.0); });
  expectNoStalePixels([&] {
    return compensate::applyToneCurve(
        frame, compensate::softKneeToneCurve(1.5, 0.8));
  });
}

TEST(FramePoolNoStalePixels, ResizeAndDisplayWriters) {
  const Image frame = sourceClip().frames[4];
  expectNoStalePixels([&] { return resizeBilinear(frame, 120, 90); });
  expectNoStalePixels([&] { return resizeBilinear(frame, 200, 150); });
  expectNoStalePixels([&] { return display::dimContent(frame, 0.6); });
}

#ifdef ANNO_TEST_ASAN
// Idle pool buffers are poisoned: reading a released frame is reported
// although its memory was never returned to the allocator.
TEST(FramePoolDeathTest, ReadingAReleasedFrameIsReported) {
  EXPECT_DEATH(
      std::thread([] {
        const volatile std::uint8_t* stale = nullptr;
        {
          const Image frame(kW, kH, Rgb8{1, 2, 3});
          stale = &frame.pixels()[kW].g;
        }
        (void)*stale;
      }).join(),
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace anno::media
