#include "media/dct.h"

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media {

Block8x8 forwardDct(const Block8x8& spatial) {
  Block8x8 out;
  kernels::active().fdct8x8(spatial.data(), out.data());
  return out;
}

Block8x8 inverseDct(const Block8x8& freq) {
  Block8x8 out;
  kernels::active().idct8x8(freq.data(), out.data());
  return out;
}

const std::array<int, 64>& zigzagOrder() { return kernels::detail::kZigzag; }

}  // namespace anno::media
