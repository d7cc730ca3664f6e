// Deterministic data-parallel loops over a ThreadPool.
//
// The determinism contract: chunk boundaries depend ONLY on (n, grain) --
// never on the thread count or on scheduling.  A body that writes only its
// own chunk's slots (no atomics, no shared mutable bins) therefore produces
// the same output for ANY thread count; callers that fold per-chunk results
// do so on the calling thread in ascending chunk order, after the loop.
#pragma once

#include <algorithm>
#include <cstddef>

#include "concurrency/thread_pool.h"

namespace anno::concurrency {

/// Number of grain-sized chunks covering [0, n).
[[nodiscard]] constexpr std::size_t chunkCount(std::size_t n,
                                               std::size_t grain) noexcept {
  const std::size_t g = grain == 0 ? 1 : grain;
  return n == 0 ? 0 : (n + g - 1) / g;
}

/// Chunked parallel loop: invokes body(begin, end) over disjoint subranges
/// covering [0, n).  `pool == nullptr` (or a pool with no workers) runs the
/// whole range serially on the caller.  Blocks until every chunk finished;
/// rethrows the lowest-indexed chunk's exception.
template <typename Body>
void parallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 Body&& body) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  if (pool == nullptr || pool->concurrency() <= 1 || n <= g) {
    body(std::size_t{0}, n);
    return;
  }
  pool->runChunked(chunkCount(n, g), [&](std::size_t c) {
    const std::size_t begin = c * g;
    body(begin, std::min(n, begin + g));
  });
}

}  // namespace anno::concurrency
