// Kernel dispatch: pick the best table the CPU supports, once, and let
// every hot path read it through one atomic pointer.
#include "media/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

std::atomic<const KernelTable*> g_active{nullptr};

/// Best level supported by this build AND this CPU.
Level bestLevel() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

/// Resolves the startup table: the ANNO_SIMD env var beats CPU detection.
/// Unknown or unavailable requests warn once on stderr and fall back to the
/// best available level.
const KernelTable* select() {
  const char* env = std::getenv("ANNO_SIMD");
  if (env != nullptr && *env) {
    if (const std::optional<Level> level = parseLevel(env)) {
      if (const KernelTable* table = tableFor(*level)) return table;
      std::fprintf(stderr,
                   "[anno] ANNO_SIMD=%s not available on this cpu/build; "
                   "using %s kernels\n",
                   env, levelName(bestLevel()));
    } else {
      std::fprintf(stderr,
                   "[anno] ANNO_SIMD=%s not recognized "
                   "(want scalar|avx2); using %s kernels\n",
                   env, levelName(bestLevel()));
    }
  }
  return tableFor(bestLevel());
}

}  // namespace

const char* levelName(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<Level> parseLevel(std::string_view name) noexcept {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

int clipThreshold(double k) noexcept {
  // The predicate is monotone in c for k >= 0; 256 probes of one multiply
  // are cheaper than any caller's histogram or frame walk.
  for (int c = 0; c <= 255; ++c) {
    if (static_cast<double>(c) * k > 255.0) return c;
  }
  return 256;
}

int tailBudgetLevel(const std::uint64_t* counts,
                    std::uint64_t budget) noexcept {
  std::uint64_t above = 0;
  for (int v = 255; v >= 1; --v) {
    above += counts[v];
    if (above > budget) return v;
  }
  return 0;
}

int lowPoint(const std::uint64_t* counts, std::uint64_t budget) noexcept {
  std::uint64_t seen = 0;
  for (int v = 0; v < 256; ++v) {
    seen += counts[v];
    if (seen > budget) return v;
  }
  return 255;
}

// The same scan as tailBudgetLevel: bin 0 can only yield 0, the
// not-found answer.
int highPoint(const std::uint64_t* counts, std::uint64_t budget) noexcept {
  return tailBudgetLevel(counts, budget);
}

bool available(Level level) noexcept { return tableFor(level) != nullptr; }

std::vector<Level> availableLevels() {
  std::vector<Level> levels;
  for (std::size_t i = 0; i < kLevelCount; ++i) {
    const Level level = static_cast<Level>(i);
    if (available(level)) levels.push_back(level);
  }
  return levels;
}

const KernelTable* tableFor(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return &scalarTable();
#if defined(__x86_64__) || defined(_M_X64)
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2") ? &avx2Table() : nullptr;
#endif
    default:
      return nullptr;
  }
}

const KernelTable& active() noexcept {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use (or a race between first uses: select() is deterministic,
    // so concurrent winners store the same pointer).
    table = select();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

Level activeLevel() noexcept { return active().level; }

ScopedLevel::ScopedLevel(Level level) : previous_(&active()) {
  const KernelTable* table = tableFor(level);
  g_active.store(table != nullptr ? table : &scalarTable(),
                 std::memory_order_release);
}

ScopedLevel::~ScopedLevel() {
  g_active.store(previous_, std::memory_order_release);
}

}  // namespace anno::media::kernels
