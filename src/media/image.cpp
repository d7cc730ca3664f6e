#include "media/image.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define ANNO_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ANNO_FRAME_POOL_ASAN 1
#endif
#endif
#ifdef ANNO_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace anno::media {
namespace {

/// Idle buffers are poisoned under ASan, so reading a released frame's
/// pixels is reported even though the memory was never freed.
void poison(void* p, std::size_t bytes) noexcept {
#ifdef ANNO_FRAME_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

void unpoison(void* p, std::size_t bytes) noexcept {
#ifdef ANNO_FRAME_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p, (void)bytes;
#endif
}

/// Set by the pool's destructor.  Trivially destructible, so a buffer
/// released later in thread exit (by another thread_local's destructor)
/// can still read it and go to operator delete.
thread_local bool tPoolGone = false;

/// One thread's idle frame buffers: a LIFO list per exact byte size, linked
/// through the first bytes of each buffer, so keeping a buffer never
/// allocates.  A release that would take the idle bytes past the budget,
/// or that finds every bin holding another size, frees the buffer instead.
class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    tPoolGone = true;
    for (Bin& bin : bins_) {
      while (bin.head != nullptr) ::operator delete(pop(bin), bin.bytes);
    }
  }

  /// A recycled buffer of exactly `bytes`, or nullptr.
  void* acquire(std::size_t bytes) noexcept {
    for (Bin& bin : bins_) {
      if (bin.bytes == bytes && bin.head != nullptr) return pop(bin);
    }
    return nullptr;
  }

  /// Keeps `p` for reuse; false when it does not fit.
  bool retain(void* p, std::size_t bytes) noexcept {
    if (bytes > kFramePoolBudgetBytes - retained_) return false;
    Bin* slot = nullptr;
    for (Bin& bin : bins_) {
      if (bin.bytes == bytes) {
        slot = &bin;
        break;
      }
      if (slot == nullptr && bin.head == nullptr) slot = &bin;
    }
    if (slot == nullptr) return false;
    slot->bytes = bytes;
    std::memcpy(p, &slot->head, sizeof(void*));
    poison(p, bytes);
    slot->head = p;
    retained_ += bytes;
    return true;
  }

  [[nodiscard]] std::size_t retainedBytes() const noexcept {
    return retained_;
  }

 private:
  struct Bin {
    std::size_t bytes = 0;
    void* head = nullptr;
  };

  void* pop(Bin& bin) noexcept {
    void* p = bin.head;
    unpoison(p, bin.bytes);
    std::memcpy(&bin.head, p, sizeof(void*));
    retained_ -= bin.bytes;
    return p;
  }

  /// Distinct buffer sizes held at once: a thread's frames, its planes and
  /// a resampled size or two.
  std::array<Bin, 8> bins_{};
  std::size_t retained_ = 0;
};

FramePool& threadPool() {
  thread_local FramePool pool;
  return pool;
}

}  // namespace

namespace detail {

void* acquireFrameBytes(std::size_t bytes) {
  if (bytes >= kFramePoolFloorBytes && !tPoolGone) {
    if (void* p = threadPool().acquire(bytes)) {
      // A byte array's lifetime implicitly creates the elements the new
      // owner uses, as operator new does for a fresh buffer.
      return ::new (p) unsigned char[bytes];
    }
  }
  return ::operator new(bytes);
}

void releaseFrameBytes(void* p, std::size_t bytes) noexcept {
  if (bytes >= kFramePoolFloorBytes && !tPoolGone &&
      threadPool().retain(p, bytes)) {
    return;
  }
  ::operator delete(p, bytes);
}

}  // namespace detail

std::size_t framePoolRetainedBytes() noexcept {
  return tPoolGone ? 0 : threadPool().retainedBytes();
}

Image::Image(int width, int height, Rgb8 fill)
    : Image(width, height, kForOverwrite) {
  if (fill == Rgb8{}) {
    std::memset(static_cast<void*>(pixels_.data()), 0,
                pixels_.size() * sizeof(Rgb8));
  } else {
    std::fill(pixels_.begin(), pixels_.end(), fill);
  }
}

Image::Image(const Image& other)
    : width_(other.width_), height_(other.height_),
      pixels_(other.pixels_.size()) {
  if (!pixels_.empty()) {
    std::memcpy(static_cast<void*>(pixels_.data()), other.pixels_.data(),
                pixels_.size() * sizeof(Rgb8));
  }
}

Image& Image::operator=(const Image& other) {
  if (this != &other) *this = Image(other);
  return *this;
}

Image resizeBilinear(const Image& src, int width, int height) {
  if (src.empty()) {
    throw std::invalid_argument("resizeBilinear: empty source");
  }
  if (width <= 0 || height <= 0 || width > Image::kMaxDim ||
      height > Image::kMaxDim) {
    throw std::invalid_argument("resizeBilinear: bad target dimensions");
  }
  Image dst(width, height, kForOverwrite);
  // Pixel-centre mapping: dst pixel centres sample the source at
  // proportional positions, clamped at the borders.
  const double sx = static_cast<double>(src.width()) / width;
  const double sy = static_cast<double>(src.height()) / height;
  for (int y = 0; y < height; ++y) {
    const double fy = std::max(0.0, (y + 0.5) * sy - 0.5);
    const int y0 = std::min(static_cast<int>(fy), src.height() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const double wy = fy - y0;
    for (int x = 0; x < width; ++x) {
      const double fx = std::max(0.0, (x + 0.5) * sx - 0.5);
      const int x0 = std::min(static_cast<int>(fx), src.width() - 1);
      const int x1 = std::min(x0 + 1, src.width() - 1);
      const double wx = fx - x0;

      const Rgb8& p00 = src(x0, y0);
      const Rgb8& p10 = src(x1, y0);
      const Rgb8& p01 = src(x0, y1);
      const Rgb8& p11 = src(x1, y1);
      const auto lerp2 = [&](auto get) {
        const double top = get(p00) * (1.0 - wx) + get(p10) * wx;
        const double bot = get(p01) * (1.0 - wx) + get(p11) * wx;
        return top * (1.0 - wy) + bot * wy;
      };
      dst(x, y) = Rgb8{clamp8(lerp2([](const Rgb8& p) { return double(p.r); })),
                       clamp8(lerp2([](const Rgb8& p) { return double(p.g); })),
                       clamp8(lerp2([](const Rgb8& p) { return double(p.b); }))};
    }
  }
  return dst;
}

}  // namespace anno::media
