// Image containers: interleaved RGB8 frames and single-channel gray planes.
//
// Frames in this library are small (PDA resolutions, e.g. 320x240), so we
// favour a simple owning value type with bounds-checked accessors over views
// or strided buffers.  All heavier analysis (histograms, luminance planes)
// lives in free functions in luminance.h / histogram.h.
//
// Frame memory (DESIGN.md sec. 12): RGB frames and the codec's sample
// planes live in FrameBuffers.  A writer that stores every pixel sizes its
// output with kForOverwrite and pays no fill, and buffers of at least
// kFramePoolFloorBytes recycle through a per-thread pool, so a steady
// decode loop neither zero-fills nor page-faults its frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "media/pixel.h"

namespace anno::media {

/// Buffers smaller than this bypass the frame pool (a 32x24 frame is
/// 2.3 KB; glibc's bins serve those without trimming).
inline constexpr std::size_t kFramePoolFloorBytes = 16 * 1024;
/// Idle bytes one thread's pool retains: 72 160x120 frames.  16 MiB grew
/// the live-proxy benchmark's peak RSS from 38.3 to 42.7 MB (+11.5%) and
/// did not make its clients' receive faster.
inline constexpr std::size_t kFramePoolBudgetBytes = 4 * 1024 * 1024;

namespace detail {
/// Allocates `bytes` for a frame buffer: a recycled buffer of exactly that
/// size from the calling thread's pool, else operator new.
[[nodiscard]] void* acquireFrameBytes(std::size_t bytes);
/// Returns a buffer to the calling thread's pool, or to operator delete
/// when it is below the floor, the pool is over budget or already gone.
void releaseFrameBytes(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// Idle bytes the calling thread's frame pool holds (0 once it is gone).
[[nodiscard]] std::size_t framePoolRetainedBytes() noexcept;

/// Allocator of frame storage.  Its no-argument construct() does nothing,
/// so resizing a FrameBuffer leaves the new elements for their writer.
template <typename T>
struct FrameAllocator {
  static_assert(std::is_trivially_copyable_v<T>,
                "frame samples must be implicit-lifetime types");
  using value_type = T;

  FrameAllocator() = default;
  template <typename U>
  FrameAllocator(const FrameAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(detail::acquireFrameBytes(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::releaseFrameBytes(p, n * sizeof(T));
  }

  /// Default insertion; construction from arguments goes through
  /// std::construct_at as usual.
  template <typename U>
  void construct(U*) noexcept {}

  template <typename U>
  friend bool operator==(const FrameAllocator&,
                         const FrameAllocator<U>&) noexcept {
    return true;
  }
};

/// Pooled, write-once storage of frame-sized sample arrays.
template <typename T>
using FrameBuffer = std::vector<T, FrameAllocator<T>>;

/// Tag of the write-once Image constructor.
struct ForOverwrite {
  explicit ForOverwrite() = default;
};
inline constexpr ForOverwrite kForOverwrite{};

/// Owning interleaved RGB8 image.  Row-major, origin top-left.
class Image {
 public:
  Image() = default;

  /// Creates a width x height image filled with `fill`.
  /// Throws std::invalid_argument on zero/overflow dimensions.
  Image(int width, int height, Rgb8 fill = Rgb8{});

  /// Creates a width x height image whose pixels are left for the caller
  /// to overwrite: reading one before it is written is undefined.  For
  /// writers that store every pixel.  Throws like the filling constructor.
  Image(int width, int height, ForOverwrite) : width_(width), height_(height) {
    if (width <= 0 || height <= 0 || width > kMaxDim || height > kMaxDim) {
      throw std::invalid_argument("Image: dimensions out of range");
    }
    pixels_.resize(static_cast<std::size_t>(width) * height);
  }

  /// Copies are one memcpy; FrameBuffer's own copy would construct the
  /// pixels one by one.
  Image(const Image& other);
  Image& operator=(const Image& other);
  Image(Image&&) noexcept = default;
  Image& operator=(Image&&) noexcept = default;

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t pixelCount() const noexcept {
    return pixels_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  /// Unchecked access (hot loops); UB if out of range, as for vector.
  [[nodiscard]] Rgb8& operator()(int x, int y) noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  [[nodiscard]] const Rgb8& operator()(int x, int y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Checked access; throws std::out_of_range.
  [[nodiscard]] Rgb8& at(int x, int y) {
    checkBounds(x, y);
    return (*this)(x, y);
  }
  [[nodiscard]] const Rgb8& at(int x, int y) const {
    checkBounds(x, y);
    return (*this)(x, y);
  }

  [[nodiscard]] std::span<Rgb8> pixels() noexcept { return pixels_; }
  [[nodiscard]] std::span<const Rgb8> pixels() const noexcept {
    return pixels_;
  }

  friend bool operator==(const Image&, const Image&) = default;

  static constexpr int kMaxDim = 1 << 15;

 private:
  void checkBounds(int x, int y) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) {
      throw std::out_of_range("Image::at: coordinate out of range");
    }
  }

  int width_ = 0;
  int height_ = 0;
  FrameBuffer<Rgb8> pixels_;
};

/// Bilinear resampling to a new resolution (both up and down).  The proxy
/// uses this to adapt streams to smaller PDA screens (the transcoding role
/// of the paper's Fig. 1 proxy, cf. the data-shaping work it cites).
/// Throws std::invalid_argument on empty input or non-positive target.
[[nodiscard]] Image resizeBilinear(const Image& src, int width, int height);

/// Owning single-channel 8-bit plane (luma planes, camera captures, solid
/// gray characterization patches).
class GrayImage {
 public:
  GrayImage() = default;

  GrayImage(int width, int height, std::uint8_t fill = 0)
      : width_(width), height_(height) {
    if (width <= 0 || height <= 0 || width > Image::kMaxDim ||
        height > Image::kMaxDim) {
      throw std::invalid_argument("GrayImage: dimensions out of range");
    }
    pixels_.assign(static_cast<std::size_t>(width) * height, fill);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t pixelCount() const noexcept {
    return pixels_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  [[nodiscard]] std::uint8_t& operator()(int x, int y) noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  [[nodiscard]] std::uint8_t operator()(int x, int y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  [[nodiscard]] std::uint8_t& at(int x, int y) {
    checkBounds(x, y);
    return (*this)(x, y);
  }
  [[nodiscard]] std::uint8_t at(int x, int y) const {
    checkBounds(x, y);
    return (*this)(x, y);
  }

  [[nodiscard]] std::span<std::uint8_t> pixels() noexcept { return pixels_; }
  [[nodiscard]] std::span<const std::uint8_t> pixels() const noexcept {
    return pixels_;
  }

  friend bool operator==(const GrayImage&, const GrayImage&) = default;

 private:
  void checkBounds(int x, int y) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) {
      throw std::out_of_range("GrayImage::at: coordinate out of range");
    }
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

}  // namespace anno::media
