#include "media/dct.h"

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media {

CoefBlock forwardDct(const SampleBlock& spatial) {
  CoefBlock out;
  kernels::active().fdct8x8(spatial.data(), out.data());
  return out;
}

SampleBlock inverseDct(const CoefBlock& freq) {
  SampleBlock out;
  kernels::active().idct8x8(freq.data(), out.data());
  return out;
}

const std::array<int, 64>& zigzagOrder() { return kernels::detail::kZigzag; }

}  // namespace anno::media
