#include "fault/inject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace anno::fault {
namespace {

std::vector<std::uint8_t> rampBuffer(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  std::iota(buf.begin(), buf.end(), std::uint8_t{0});
  return buf;
}

TEST(Inject, PlanIsDeterministic) {
  const auto a = planInjections(42, 300);
  const auto b = planInjections(42, 300);
  EXPECT_EQ(a, b);
  const auto c = planInjections(43, 300);
  EXPECT_NE(a, c);
}

TEST(Inject, ApplyIsDeterministic) {
  const auto base = rampBuffer(257);
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    const InjectionPlan plan = planInjections(seed, base.size());
    EXPECT_EQ(applyPlan(base, plan), applyPlan(base, plan)) << "seed " << seed;
  }
}

TEST(Inject, EmptyPlanIsIdentity) {
  const auto base = rampBuffer(64);
  InjectionPlan plan;
  InjectionReport report;
  EXPECT_EQ(applyPlan(base, plan, &report), base);
  EXPECT_TRUE(report.identity());
  EXPECT_EQ(report.inputBytes, 64u);
  EXPECT_EQ(report.outputBytes, 64u);
}

TEST(Inject, BitFlipChangesExactlyOneBit) {
  const auto base = rampBuffer(32);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kBitFlip, 7, 0, 0, 3});
  InjectionReport report;
  const auto out = applyPlan(base, plan, &report);
  ASSERT_EQ(out.size(), base.size());
  EXPECT_EQ(report.mutationsApplied, 1u);
  int bitsChanged = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::uint8_t diff = base[i] ^ out[i];
    while (diff != 0) {
      bitsChanged += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bitsChanged, 1);
  EXPECT_EQ(out[7], base[7] ^ (1u << 3));
}

TEST(Inject, TruncateShortensToOffset) {
  const auto base = rampBuffer(100);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kTruncate, 40, 0, 0, 0});
  const auto out = applyPlan(base, plan);
  EXPECT_EQ(out.size(), 40u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), base.begin()));
}

TEST(Inject, ChunkDropRemovesSpan) {
  const auto base = rampBuffer(100);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kChunkDrop, 10, 5, 0, 0});
  const auto out = applyPlan(base, plan);
  ASSERT_EQ(out.size(), 95u);
  EXPECT_EQ(out[9], 9);
  EXPECT_EQ(out[10], 15);  // bytes 10..14 gone
}

TEST(Inject, DuplicateGrowsBuffer) {
  const auto base = rampBuffer(50);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kDuplicate, 0, 10, 50, 0});
  const auto out = applyPlan(base, plan);
  ASSERT_EQ(out.size(), 60u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[50 + i], base[i]);  // copy of the first 10 bytes at the end
  }
}

TEST(Inject, ReorderPreservesByteMultiset) {
  const auto base = rampBuffer(80);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kReorder, 5, 16, 60, 0});
  const auto out = applyPlan(base, plan);
  ASSERT_EQ(out.size(), base.size());
  auto a = base;
  auto b = out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(out, base);
}

TEST(Inject, ClampsOutOfRangeOffsets) {
  // A plan generated for one buffer size applies safely to any other.
  const auto base = rampBuffer(10);
  InjectionPlan plan;
  plan.mutations.push_back({MutationKind::kBitFlip, 5000, 0, 0, 1});
  plan.mutations.push_back({MutationKind::kChunkDrop, 9999, 500, 0, 0});
  plan.mutations.push_back({MutationKind::kDuplicate, 8888, 500, 7777, 0});
  EXPECT_NO_THROW((void)applyPlan(base, plan));
}

TEST(Inject, EmptyBufferIsSafe) {
  const std::vector<std::uint8_t> empty;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    InjectionReport report;
    const auto out = injectFaults(empty, seed, {}, &report);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(report.identity());
  }
}

TEST(Inject, ReportEnumeratesAppliedMutations) {
  const auto base = rampBuffer(200);
  InjectionReport report;
  const auto out = injectFaults(base, 7, {}, &report);
  EXPECT_EQ(report.inputBytes, base.size());
  EXPECT_EQ(report.outputBytes, out.size());
  EXPECT_EQ(report.applied.size(), report.mutationsApplied);
  // Replaying only the as-applied mutations reproduces the output.
  InjectionPlan replay;
  replay.mutations = report.applied;
  EXPECT_EQ(applyPlan(base, replay), out);
}

TEST(Inject, ConfigRestrictsKinds) {
  InjectorConfig zero;
  zero.maxMutations = 0;
  EXPECT_THROW((void)planInjections(1, 100, zero), std::invalid_argument);
}

TEST(Inject, CorpusIsDeterministicAndMostlyMutating) {
  const auto base = rampBuffer(300);
  std::vector<std::vector<std::uint8_t>> first;
  const std::size_t mutatedA = runCorpus(
      base, 99, 200, {},
      [&](std::span<const std::uint8_t> m, const InjectionPlan&,
          const InjectionReport&) {
        first.emplace_back(m.begin(), m.end());
      });
  std::size_t i = 0;
  const std::size_t mutatedB = runCorpus(
      base, 99, 200, {},
      [&](std::span<const std::uint8_t> m, const InjectionPlan&,
          const InjectionReport&) {
        ASSERT_LT(i, first.size());
        EXPECT_TRUE(std::equal(m.begin(), m.end(), first[i].begin(),
                               first[i].end()));
        ++i;
      });
  EXPECT_EQ(mutatedA, mutatedB);
  EXPECT_GT(mutatedA, 190u);  // byte-set may rarely no-op; the rest mutate
}

TEST(Inject, KindNamesAreStable) {
  EXPECT_STREQ(mutationKindName(MutationKind::kBitFlip), "bit-flip");
  EXPECT_STREQ(mutationKindName(MutationKind::kTruncate), "truncate");
  EXPECT_STREQ(mutationKindName(MutationKind::kChunkDrop), "chunk-drop");
}

}  // namespace
}  // namespace anno::fault
