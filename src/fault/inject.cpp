#include "fault/inject.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>

#include "media/rng.h"
#include "telemetry/metrics.h"

namespace anno::fault {
namespace {

/// Module-level instrument block, published atomically on attach.  One
/// counter per real mutation kind (identity never counts as applied).
struct FaultTelemetry {
  telemetry::Counter* plans = nullptr;
  std::array<telemetry::Counter*, 6> mutationsApplied{};
  telemetry::Counter* corpusBuffers = nullptr;
  telemetry::Counter* corpusMutated = nullptr;
};

std::atomic<const FaultTelemetry*> g_faultTelemetry{nullptr};

const FaultTelemetry* faultTelemetry() noexcept {
  return g_faultTelemetry.load(std::memory_order_acquire);
}

}  // namespace

void attachFaultTelemetry(telemetry::Registry& registry) {
  static FaultTelemetry block;
  block.plans = &registry.counter(
      "anno_fault_plans_total", {},
      "Injection plans expanded from seeds");
  for (std::uint8_t k = 0; k < block.mutationsApplied.size(); ++k) {
    block.mutationsApplied[k] = &registry.counter(
        "anno_fault_mutations_applied_total",
        {{"kind", mutationKindName(static_cast<MutationKind>(k))}},
        "Mutations that actually changed a buffer, by kind");
  }
  block.corpusBuffers = &registry.counter(
      "anno_fault_corpus_buffers_total", {},
      "Buffers produced by corpus runs");
  block.corpusMutated = &registry.counter(
      "anno_fault_corpus_mutated_total", {},
      "Corpus buffers that differed from the base");
  g_faultTelemetry.store(&block, std::memory_order_release);
}

void detachFaultTelemetry() noexcept {
  g_faultTelemetry.store(nullptr, std::memory_order_release);
}

namespace {

/// Every real mutation kind, in the order plans draw them.
constexpr std::array<MutationKind, 6> kKinds = {
    MutationKind::kBitFlip,   MutationKind::kByteSet,
    MutationKind::kTruncate,  MutationKind::kDuplicate,
    MutationKind::kChunkDrop, MutationKind::kReorder};

/// Cap on a duplicate/drop/reorder chunk's size.
constexpr std::size_t kMaxChunkBytes = 64;

/// Applies one mutation in place; returns the as-applied (clamped) mutation,
/// or kIdentity if the buffer state made it a no-op.
Mutation applyOne(std::vector<std::uint8_t>& buf, Mutation m) {
  const std::size_t n = buf.size();
  switch (m.kind) {
    case MutationKind::kIdentity:
      break;
    case MutationKind::kBitFlip: {
      if (n == 0) return {};
      m.offset %= n;
      m.value &= 7;
      buf[m.offset] ^= static_cast<std::uint8_t>(1u << m.value);
      return m;
    }
    case MutationKind::kByteSet: {
      if (n == 0) return {};
      m.offset %= n;
      if (buf[m.offset] == m.value) return {};  // no change
      buf[m.offset] = m.value;
      return m;
    }
    case MutationKind::kTruncate: {
      // offset is the *kept* prefix length.
      if (n == 0) return {};
      m.offset %= n;  // keep in [0, n): always removes at least one byte
      m.length = n - m.offset;
      buf.resize(m.offset);
      return m;
    }
    case MutationKind::kDuplicate: {
      if (n == 0) return {};
      m.offset %= n;
      m.length = std::max<std::size_t>(1, std::min(m.length, n - m.offset));
      m.target %= (n + 1);
      const std::vector<std::uint8_t> chunk(
          buf.begin() + static_cast<std::ptrdiff_t>(m.offset),
          buf.begin() + static_cast<std::ptrdiff_t>(m.offset + m.length));
      buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(m.target),
                 chunk.begin(), chunk.end());
      return m;
    }
    case MutationKind::kChunkDrop: {
      if (n == 0) return {};
      m.offset %= n;
      m.length = std::max<std::size_t>(1, std::min(m.length, n - m.offset));
      buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(m.offset),
                buf.begin() + static_cast<std::ptrdiff_t>(m.offset + m.length));
      return m;
    }
    case MutationKind::kReorder: {
      if (n < 2) return {};
      m.offset %= n;
      m.length = std::max<std::size_t>(1, std::min(m.length, n - m.offset));
      const std::vector<std::uint8_t> chunk(
          buf.begin() + static_cast<std::ptrdiff_t>(m.offset),
          buf.begin() + static_cast<std::ptrdiff_t>(m.offset + m.length));
      buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(m.offset),
                buf.begin() + static_cast<std::ptrdiff_t>(m.offset + m.length));
      m.target %= (buf.size() + 1);
      if (m.target == m.offset) {  // would reinsert in place
        m.target = (m.target + 1) % (buf.size() + 1);
      }
      buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(m.target),
                 chunk.begin(), chunk.end());
      return m;
    }
  }
  return {};
}

}  // namespace

const char* mutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kBitFlip: return "bit-flip";
    case MutationKind::kByteSet: return "byte-set";
    case MutationKind::kTruncate: return "truncate";
    case MutationKind::kDuplicate: return "duplicate";
    case MutationKind::kChunkDrop: return "chunk-drop";
    case MutationKind::kReorder: return "reorder";
    case MutationKind::kIdentity: return "identity";
  }
  return "unknown";
}

InjectionPlan planInjections(std::uint64_t seed, std::size_t bufferSize,
                             const InjectorConfig& cfg) {
  if (cfg.maxMutations == 0) {
    throw std::invalid_argument("planInjections: maxMutations must be > 0");
  }
  media::SplitMix64 rng(seed);
  InjectionPlan plan;
  plan.seed = seed;
  const std::size_t count = 1 + rng.below(cfg.maxMutations);
  const std::size_t span = std::max<std::size_t>(1, bufferSize);
  plan.mutations.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Mutation m;
    m.kind = kKinds[rng.below(kKinds.size())];
    m.offset = rng.below(span);
    m.length = 1 + rng.below(kMaxChunkBytes);
    m.target = rng.below(span + 1);
    m.value = static_cast<std::uint8_t>(rng.below(256));
    plan.mutations.push_back(m);
  }
  if (const FaultTelemetry* t = faultTelemetry()) {
    telemetry::inc(t->plans);
  }
  return plan;
}

std::vector<std::uint8_t> applyPlan(std::span<const std::uint8_t> input,
                                    const InjectionPlan& plan,
                                    InjectionReport* report) {
  std::vector<std::uint8_t> buf(input.begin(), input.end());
  InjectionReport local;
  local.inputBytes = input.size();
  const FaultTelemetry* t = faultTelemetry();
  for (const Mutation& m : plan.mutations) {
    const Mutation applied = applyOne(buf, m);
    if (applied.kind != MutationKind::kIdentity) {
      local.applied.push_back(applied);
      ++local.mutationsApplied;
      if (t != nullptr) {
        const auto k = static_cast<std::size_t>(applied.kind);
        if (k < t->mutationsApplied.size()) {
          telemetry::inc(t->mutationsApplied[k]);
        }
      }
    }
  }
  local.outputBytes = buf.size();
  if (report != nullptr) *report = std::move(local);
  return buf;
}

std::vector<std::uint8_t> injectFaults(std::span<const std::uint8_t> input,
                                       std::uint64_t seed,
                                       const InjectorConfig& cfg,
                                       InjectionReport* report) {
  return applyPlan(input, planInjections(seed, input.size(), cfg), report);
}

std::size_t runCorpus(
    std::span<const std::uint8_t> base, std::uint64_t masterSeed,
    std::size_t count, const InjectorConfig& cfg,
    const std::function<void(std::span<const std::uint8_t>,
                             const InjectionPlan&,
                             const InjectionReport&)>& consume) {
  media::SplitMix64 master(masterSeed);
  std::size_t mutatedBuffers = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = master.next();
    const InjectionPlan plan = planInjections(seed, base.size(), cfg);
    InjectionReport report;
    const std::vector<std::uint8_t> mutated = applyPlan(base, plan, &report);
    if (!report.identity()) ++mutatedBuffers;
    consume(mutated, plan, report);
  }
  if (const FaultTelemetry* t = faultTelemetry()) {
    telemetry::inc(t->corpusBuffers, count);
    telemetry::inc(t->corpusMutated, mutatedBuffers);
  }
  return mutatedBuffers;
}

}  // namespace anno::fault
