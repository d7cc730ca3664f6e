// Per-kernel cost of the SIMD dispatch layer (src/media/kernels) at every
// level available on this machine, against the scalar reference.  This is
// the layer's acceptance bench: the fused frame profile must beat scalar by
// >= 2x and the 256-bin EMD by >= 4x on x86-64 (best of kReps reps).  Each
// row also reports the reps' median and quartile spread, and whether that
// spread separates it from scalar.  The fixed-point codec
// kernels (8x8 DCT/IDCT, quantisation, YCbCr conversion) are timed per
// block or per frame alongside them.  Every variant's output is
// checked equal to scalar before its timing is reported; divergence aborts
// with EXIT_FAILURE (the bit-identical contract is not a benchmark knob).
// Emits BENCH_simd_kernels.json at the repo root.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "media/dct.h"
#include "media/image.h"
#include "media/kernels/kernels.h"
#include "media/pixel.h"
#include "media/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace anno;
using media::kernels::FrameProfile;
using media::kernels::KernelTable;
using media::kernels::Level;
using media::kernels::Uint128;

constexpr int kWidth = 320;
constexpr int kHeight = 240;  // the paper's clip resolution
constexpr int kReps = 9;

/// Times `iters` calls of fn() once per rep and returns the reps' ns per
/// op, ascending.
template <typename F>
std::array<double, kReps> timeOp(std::size_t iters, const F& fn) {
  std::array<double, kReps> ns{};
  for (double& rep : ns) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    rep = 1e9 * s / static_cast<double>(iters);
  }
  std::sort(ns.begin(), ns.end());
  return ns;
}

struct LevelResult {
  Level level;
  double nsPerOp = 0.0;  // best of the reps
  double medianNs = 0.0;
  double q1Ns = 0.0;  // quartiles of the reps
  double q3Ns = 0.0;
  double speedup = 1.0;  // scalar best / this best
  /// The level's and scalar's quartile ranges do not overlap, so the
  /// host's run-to-run spread cannot explain the difference.
  bool resolved = false;
};

struct KernelResult {
  std::string kernel;
  double opsUnit = 0.0;  // pixels (or bins) per op, for the table
  std::vector<LevelResult> levels;
};

volatile std::uint64_t g_sink = 0;  // defeat dead-code elimination

}  // namespace

int main() {
  bench::printHeader(
      "SIMD kernel layer: per-kernel cost per dispatch level vs scalar");

  const std::vector<Level> levels = media::kernels::availableLevels();
  std::printf("dispatch levels available:");
  for (Level l : levels) std::printf(" %s", media::kernels::levelName(l));
  std::printf("  (active: %s)\n",
              media::kernels::levelName(media::kernels::activeLevel()));

  // Workload: one paper-resolution frame of random content, plus a second
  // frame for the EMD pair.  Deterministic, so runs are comparable.
  const std::size_t n = static_cast<std::size_t>(kWidth) * kHeight;
  media::Image frameA(kWidth, kHeight);
  media::Image frameB(kWidth, kHeight);
  media::SplitMix64 rng(0x51D);
  for (media::Rgb8& p : frameA.pixels()) {
    const std::uint64_t r = rng.next();
    p = media::Rgb8{static_cast<std::uint8_t>(r),
                    static_cast<std::uint8_t>(r >> 8),
                    static_cast<std::uint8_t>(r >> 16)};
  }
  for (media::Rgb8& p : frameB.pixels()) {
    const std::uint64_t r = rng.next();
    p = media::Rgb8{static_cast<std::uint8_t>(r),
                    static_cast<std::uint8_t>(r >> 8),
                    static_cast<std::uint8_t>(r >> 16)};
  }
  const media::Rgb8* pxA = frameA.pixels().data();

  FrameProfile profA;
  FrameProfile profB;
  media::kernels::tableFor(Level::kScalar)->profileRgb(pxA, n, profA);
  media::kernels::tableFor(Level::kScalar)
      ->profileRgb(frameB.pixels().data(), n, profB);

  const KernelTable* scalar = media::kernels::tableFor(Level::kScalar);
  bool identical = true;
  std::vector<KernelResult> results;

  const auto report = [&](const char* name, double unit, auto&& makeOp,
                          std::size_t iters) {
    KernelResult kr;
    kr.kernel = name;
    kr.opsUnit = unit;
    for (Level level : levels) {
      const KernelTable* table = media::kernels::tableFor(level);
      auto op = makeOp(table);  // returns closure; also checks correctness
      const std::array<double, kReps> ns = timeOp(iters, op);
      LevelResult lr;
      lr.level = level;
      lr.nsPerOp = ns.front();
      lr.medianNs = ns[kReps / 2];
      lr.q1Ns = ns[kReps / 4];
      lr.q3Ns = ns[3 * kReps / 4];
      const LevelResult& base = kr.levels.empty() ? lr : kr.levels.front();
      lr.speedup = base.nsPerOp / lr.nsPerOp;
      lr.resolved = lr.q3Ns < base.q1Ns || lr.q1Ns > base.q3Ns;
      kr.levels.push_back(lr);
    }
    results.push_back(std::move(kr));
  };

  // (1) Fused frame profile.
  report(
      "profile_rgb", static_cast<double>(n),
      [&](const KernelTable* table) {
        FrameProfile check;
        table->profileRgb(pxA, n, check);
        identical = identical && check.hist == profA.hist &&
                    check.lumaSum == profA.lumaSum &&
                    check.minLuma == profA.minLuma &&
                    check.maxLuma == profA.maxLuma;
        return [table, pxA, n] {
          FrameProfile out;
          table->profileRgb(pxA, n, out);
          g_sink = g_sink + out.lumaSum;
        };
      },
      40);

  // (3) 256-bin EMD numerator (the scene detector's per-frame cost).
  const Uint128 wantEmd =
      scalar->emdNumerator(profA.hist.data(), n, profB.hist.data(), n);
  report(
      "emd_256", 256.0,
      [&](const KernelTable* table) {
        identical =
            identical && table->emdNumerator(profA.hist.data(), n,
                                             profB.hist.data(), n) == wantEmd;
        return [table, &profA, &profB, n] {
          g_sink = g_sink +
                   static_cast<std::uint64_t>(table->emdNumerator(
                       profA.hist.data(), n, profB.hist.data(), n));
        };
      },
      20000);

  // Max-channel histogram (clip-fraction planning; vectorized this PR).
  std::uint64_t maxHistWant[256] = {};
  scalar->maxChannelHistogram(pxA, n, maxHistWant);
  report(
      "max_channel_hist", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::uint64_t got[256] = {};
        table->maxChannelHistogram(pxA, n, got);
        identical =
            identical && std::memcmp(got, maxHistWant, sizeof got) == 0;
        return [table, pxA, n] {
          std::uint64_t hist[256] = {};
          table->maxChannelHistogram(pxA, n, hist);
          g_sink = g_sink + hist[128];
        };
      },
      100);

  // (2) Histogram accumulate (scene statistics merge).
  report(
      "hist_accumulate", 256.0,
      [&](const KernelTable* table) {
        std::uint64_t want[256];
        std::uint64_t got[256];
        std::copy(profB.hist.begin(), profB.hist.end(), want);
        std::copy(profB.hist.begin(), profB.hist.end(), got);
        scalar->histAccumulate(want, profA.hist.data());
        table->histAccumulate(got, profA.hist.data());
        identical = identical && std::memcmp(want, got, sizeof want) == 0;
        return [table, &profA] {
          static std::uint64_t dst[256] = {};
          table->histAccumulate(dst, profA.hist.data());
          g_sink = g_sink + dst[0];
        };
      },
      50000);

  // Luma plane extraction (codec front-end).
  std::vector<std::uint8_t> planeWant(n);
  scalar->lumaPlane(pxA, n, planeWant.data());
  report(
      "luma_plane", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<std::uint8_t> out(n);
        table->lumaPlane(pxA, n, out.data());
        identical =
            identical && std::memcmp(out.data(), planeWant.data(), n) == 0;
        return [table, pxA, n] {
          static std::vector<std::uint8_t> dst(n);
          table->lumaPlane(pxA, n, dst.data());
          g_sink = g_sink + dst[0];
        };
      },
      40);

  // (4) Codec block kernels, one 8x8 block per op, cycling through the
  // blocks of frame A's Q5 luma plane.  Outputs are compared for equality
  // on every block.
  std::vector<std::int16_t> planeY(n);
  std::vector<std::int16_t> planeCb(n);
  std::vector<std::int16_t> planeCr(n);
  scalar->rgbToYcbcrPlanes(pxA, n, planeY.data(), planeCb.data(),
                           planeCr.data());
  using Samples = std::array<std::int16_t, 64>;
  using Coefs = std::array<std::int32_t, 64>;
  std::vector<Samples> spatial;
  for (int by = 0; by + 8 <= kHeight; by += 8) {
    for (int bx = 0; bx + 8 <= kWidth; bx += 8) {
      Samples blk;
      for (int i = 0; i < 64; ++i) {
        blk[i] = planeY[static_cast<std::size_t>(by + i / 8) * kWidth + bx +
                        i % 8];
      }
      spatial.push_back(blk);
    }
  }
  // JPEG Annex K luminance table at quality 75, as the codec builds it.
  constexpr int kBaseQuant[64] = {
      16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
      14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
      18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
      49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
  int divisors[64];
  for (int i = 0; i < 64; ++i) divisors[i] = (kBaseQuant[i] * 50 + 50) / 100;
  const media::kernels::QuantTable quant =
      media::kernels::makeQuantTable(divisors);
  // Forward coefficients (intra offset removed) and their dequantised
  // levels: what the inverse sees in a decoder.
  std::vector<Coefs> freq(spatial.size());
  std::vector<Coefs> dequant(spatial.size());
  for (std::size_t b = 0; b < spatial.size(); ++b) {
    scalar->fdct8x8(spatial[b].data(), freq[b].data());
    freq[b][0] -= 1024 << media::kernels::kCoefFracBits;
    std::int32_t levelsZz[64];
    scalar->quantizeBlock(freq[b].data(), quant, levelsZz);
    for (int i = 0; i < 64; ++i) {
      const int z = media::zigzagOrder()[i];
      dequant[b][z] = levelsZz[i] * divisors[z];
    }
    dequant[b][0] += 1024;
  }
  std::size_t next = 0;  // block cursor of the per-block ops
  const auto reportBlock = [&](const char* name, auto fn, const auto& in,
                               auto want) {
    for (std::size_t b = 0; b < in.size(); ++b) {
      (scalar->*fn)(in[b].data(), want[b].data());
    }
    report(
        name, 64.0,
        [&, fn, want](const KernelTable* table) {
          for (std::size_t b = 0; b < in.size(); ++b) {
            auto got = want[b];
            (table->*fn)(in[b].data(), got.data());
            identical = identical && got == want[b];
          }
          return [table, fn, &in, &next] {
            typename decltype(want)::value_type out;
            (table->*fn)(in[next].data(), out.data());
            next = next + 1 == in.size() ? 0 : next + 1;
            g_sink = g_sink + static_cast<std::uint64_t>(out[0] != 0);
          };
        },
        200000);
  };
  reportBlock("fdct8x8", &KernelTable::fdct8x8, spatial,
              std::vector<Coefs>(spatial.size()));
  reportBlock("idct8x8", &KernelTable::idct8x8, dequant,
              std::vector<Samples>(dequant.size()));

  std::vector<Coefs> quantWant(freq.size());
  for (std::size_t b = 0; b < freq.size(); ++b) {
    scalar->quantizeBlock(freq[b].data(), quant, quantWant[b].data());
  }
  report(
      "quantize_block", 64.0,
      [&](const KernelTable* table) {
        for (std::size_t b = 0; b < freq.size(); ++b) {
          Coefs got;
          table->quantizeBlock(freq[b].data(), quant, got.data());
          identical = identical && got == quantWant[b];
        }
        return [table, &freq, &quant, &next] {
          std::int32_t out[64];
          g_sink = g_sink + table->quantizeBlock(freq[next].data(), quant, out);
          next = next + 1 == freq.size() ? 0 : next + 1;
        };
      },
      200000);

  // (5) Codec colour conversion over the whole frame.
  report(
      "rgb_to_ycbcr", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<std::int16_t> y(n);
        std::vector<std::int16_t> cb(n);
        std::vector<std::int16_t> cr(n);
        table->rgbToYcbcrPlanes(pxA, n, y.data(), cb.data(), cr.data());
        identical = identical && y == planeY && cb == planeCb &&
                    cr == planeCr;
        return [table, pxA, n] {
          static std::vector<std::int16_t> yOut(n);
          static std::vector<std::int16_t> cbOut(n);
          static std::vector<std::int16_t> crOut(n);
          table->rgbToYcbcrPlanes(pxA, n, yOut.data(), cbOut.data(),
                                  crOut.data());
          g_sink = g_sink + static_cast<std::uint64_t>(yOut[0]);
        };
      },
      40);

  // Back from planes with Cb stretched so the clamps fire on some pixels.
  std::vector<std::int16_t> cbShift(n);
  for (std::size_t i = 0; i < n; ++i) {
    cbShift[i] = static_cast<std::int16_t>(planeCb[i] * 13 / 10 - 640);
  }
  std::vector<media::Rgb8> rgbWant(n);
  scalar->ycbcrPlanesToRgb(planeY.data(), cbShift.data(), planeCr.data(), n,
                           rgbWant.data());
  report(
      "ycbcr_to_rgb", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<media::Rgb8> out(n);
        table->ycbcrPlanesToRgb(planeY.data(), cbShift.data(),
                                planeCr.data(), n, out.data());
        identical = identical && out == rgbWant;
        return [table, &planeY, &cbShift, &planeCr, n] {
          static std::vector<media::Rgb8> dst(n);
          table->ycbcrPlanesToRgb(planeY.data(), cbShift.data(),
                                  planeCr.data(), n, dst.data());
          g_sink = g_sink + dst[0].r;
        };
      },
      40);

  // ns/op and speedup are best-of-reps; median and IQR (the distance
  // between the reps' quartiles) show how far the host moved them.
  bench::Table table({"kernel", "level", "ns/op", "median", "IQR",
                      "ns/Kelem", "speedup", "resolved"});
  for (const KernelResult& kr : results) {
    for (const LevelResult& lr : kr.levels) {
      table.addRow({kr.kernel, media::kernels::levelName(lr.level),
                    bench::fmt(lr.nsPerOp, 1), bench::fmt(lr.medianNs, 1),
                    bench::fmt(lr.q3Ns - lr.q1Ns, 1),
                    bench::fmt(1000.0 * lr.nsPerOp / kr.opsUnit, 2),
                    bench::fmt(lr.speedup, 2) + "x",
                    lr.level == Level::kScalar ? "-"
                    : lr.resolved              ? "yes"
                                               : "no"});
    }
  }
  table.print();
  table.printCsv("simd_kernels");
  std::printf("\nall variants bit-identical to scalar: %s\n",
              identical ? "yes" : "NO");

  // Acceptance targets (x86-64): best level must reach 4x on EMD and 2x on
  // the fused profile.
  double bestEmd = 1.0;
  double bestProfile = 1.0;
  for (const KernelResult& kr : results) {
    for (const LevelResult& lr : kr.levels) {
      if (kr.kernel == "emd_256") bestEmd = std::max(bestEmd, lr.speedup);
      if (kr.kernel == "profile_rgb") {
        bestProfile = std::max(bestProfile, lr.speedup);
      }
    }
  }
#if defined(__x86_64__) || defined(_M_X64)
  const bool targetsApply = true;
#else
  const bool targetsApply = false;
#endif
  const bool targetsMet = bestEmd >= 4.0 && bestProfile >= 2.0;
  std::printf("best speedups: emd_256 %.2fx (target 4x), profile_rgb %.2fx "
              "(target 2x) -> %s\n",
              bestEmd, bestProfile,
              !targetsApply ? "n/a (non-x86)" : targetsMet ? "MET" : "MISSED");

  bench::JsonReport json;
  json.object("workload").field("width", kWidth).field("height", kHeight).end();
  json.array("levels");
  for (Level level : levels) json.element(media::kernels::levelName(level));
  json.end().array("kernels");
  for (const KernelResult& kr : results) {
    json.object()
        .field("kernel", kr.kernel).field("elems_per_op", kr.opsUnit)
        .array("levels");
    for (const LevelResult& lr : kr.levels) {
      json.object()
          .field("level", media::kernels::levelName(lr.level))
          .field("ns_per_op", lr.nsPerOp)
          .field("median_ns_per_op", lr.medianNs)
          .field("iqr_ns_per_op", lr.q3Ns - lr.q1Ns)
          .field("speedup_vs_scalar", lr.speedup);
      if (lr.level != Level::kScalar) json.field("resolved", lr.resolved);
      json.end();
    }
    json.end().end();
  }
  json.end().field("bit_identical", identical)
      .field("best_emd_speedup", bestEmd)
      .field("best_profile_speedup", bestProfile)
      .object("targets")
      .field("emd_min", 4.0).field("profile_min", 2.0)
      .field("apply", targetsApply).field("met", targetsMet)
      .write("BENCH_simd_kernels.json");

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: a SIMD variant diverged from the scalar reference\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
