// Deterministic byte-level fault injection for serialized buffers.
//
// Every wire format in this system (annotation tracks, mux containers,
// negotiation messages) eventually crosses the 802.11b hop the paper's
// system model ends on, and real radio paths corrupt, truncate, duplicate,
// drop and reorder data.  This module produces those faults *on purpose*,
// deterministically: a seed expands into an InjectionPlan -- an explicit
// list of mutations -- which applies to any byte buffer and yields a report
// of exactly what was changed.  Tests and benches replay plans byte-for-byte
// identically across runs and platforms (SplitMix64 arithmetic only).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace anno::telemetry {
class Registry;
}

namespace anno::fault {

/// Registers fault-injection instruments in `registry` and starts recording
/// from every plan/apply call in the process (free functions -> module-level
/// attachment):
///   anno_fault_plans_total, anno_fault_mutations_applied_total (labelled
///   {kind=...} per mutation kind), anno_fault_corpus_buffers_total,
///   anno_fault_corpus_mutated_total.
/// Detached by default; detach restores zero recording cost.
void attachFaultTelemetry(telemetry::Registry& registry);
void detachFaultTelemetry() noexcept;

/// The mutation repertoire: everything a lossy, reordering network or a bad
/// flash sector can plausibly do to a byte stream.
enum class MutationKind : std::uint8_t {
  kBitFlip = 0,    ///< flip one bit of one byte
  kByteSet = 1,    ///< overwrite one byte with an arbitrary value
  kTruncate = 2,   ///< drop the buffer's tail
  kDuplicate = 3,  ///< re-insert a copy of a chunk (retransmit duplicate)
  kChunkDrop = 4,  ///< erase a chunk (lost packet)
  kReorder = 5,    ///< move a chunk to another position (out-of-order arrival)
  kIdentity = 6,   ///< no-op (calibration: plan applies, nothing changes)
};

[[nodiscard]] const char* mutationKindName(MutationKind kind);

/// One planned mutation.  Offsets/lengths are expressed against the buffer
/// as it exists when the mutation applies (mutations apply in order, each
/// seeing the previous one's output) and are clamped to the live size, so a
/// plan generated for one buffer length applies safely to any other.
struct Mutation {
  MutationKind kind = MutationKind::kIdentity;
  std::size_t offset = 0;  ///< anchor byte
  std::size_t length = 0;  ///< chunk size (duplicate/drop/reorder), cut size (truncate)
  std::size_t target = 0;  ///< insertion point (duplicate/reorder)
  std::uint8_t value = 0;  ///< bit index (bit flip) or byte value (byte set)

  friend bool operator==(const Mutation&, const Mutation&) = default;
};

/// A deterministic, replayable mutation sequence.
struct InjectionPlan {
  std::uint64_t seed = 0;
  std::vector<Mutation> mutations;

  friend bool operator==(const InjectionPlan&, const InjectionPlan&) = default;
};

/// What a plan actually did to a particular buffer.
struct InjectionReport {
  std::size_t inputBytes = 0;
  std::size_t outputBytes = 0;
  std::size_t mutationsApplied = 0;  ///< mutations that changed the buffer
  /// The as-applied mutations (offsets/lengths after clamping); enumerates
  /// exactly what was changed, in application order.
  std::vector<Mutation> applied;

  [[nodiscard]] bool identity() const noexcept { return mutationsApplied == 0; }
};

/// How hard a plan hits.  Plans draw from all six real mutation kinds, with
/// duplicate/drop/reorder chunks of at most 64 bytes.
struct InjectorConfig {
  std::size_t maxMutations = 4;    ///< plan length is 1..maxMutations
};

/// Expands `seed` into a mutation plan sized for a `bufferSize`-byte buffer.
/// Deterministic: same (seed, bufferSize, cfg) -> same plan, on every
/// platform.  Throws std::invalid_argument if maxMutations == 0.
[[nodiscard]] InjectionPlan planInjections(std::uint64_t seed,
                                           std::size_t bufferSize,
                                           const InjectorConfig& cfg = {});

/// Applies `plan` to a copy of `input`; optionally reports what changed.
/// Never throws: every mutation clamps to the live buffer.
[[nodiscard]] std::vector<std::uint8_t> applyPlan(
    std::span<const std::uint8_t> input, const InjectionPlan& plan,
    InjectionReport* report = nullptr);

/// Convenience: plan + apply in one call.
[[nodiscard]] std::vector<std::uint8_t> injectFaults(
    std::span<const std::uint8_t> input, std::uint64_t seed,
    const InjectorConfig& cfg = {}, InjectionReport* report = nullptr);

/// Seeded corpus runner: derives `count` independent plans from `masterSeed`
/// (SplitMix64 split stream), applies each to `base`, and hands every
/// mutated buffer to `consume` together with its plan and report.  The
/// consume callback is the assertion site; the runner only guarantees the
/// corpus is deterministic and returns how many buffers differed from the
/// base.
std::size_t runCorpus(
    std::span<const std::uint8_t> base, std::uint64_t masterSeed,
    std::size_t count, const InjectorConfig& cfg,
    const std::function<void(std::span<const std::uint8_t> mutated,
                             const InjectionPlan& plan,
                             const InjectionReport& report)>& consume);

}  // namespace anno::fault
