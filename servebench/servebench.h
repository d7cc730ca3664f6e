// The serving benchmark's shared pieces: options, the result ledger, the
// fastest-repeat latency samples, and the stage ledger that times each call
// into the library from outside (and, in a traced run, records it as a
// telemetry::TraceRecorder span).
//
// Every workload is a closed loop driven from this one process: session
// arrivals follow the scheduler's virtual ticks, wall-clock work runs as
// fast as the stack allows.  Nothing here reaches into the library's
// internals; every number comes from timing a public call.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace anno::telemetry {
class TraceRecorder;
}

namespace servebench {

/// Held-out workload seed: later changes tune on any other seed and confirm
/// their claim on this one.
inline constexpr std::uint64_t kHeldOutSeed = 20061;

/// CPU time of the calling thread, in nanoseconds.  Every timed call runs
/// on the one driving thread, so this is its wall time minus the time the
/// thread was not running: waiting for a CPU inside the machine, or (with
/// paravirtual steal accounting, as on KVM guests) the time the hypervisor
/// ran other tenants on its vCPU.  On a shared host those waits come in
/// stretches of seconds and would otherwise swamp the code's own speed.
inline double threadCpuNs() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// CPU time of the whole process (every thread), in seconds.  Set-up
/// ingests on a thread pool, so its cost is the CPU time of all of them;
/// like threadCpuNs it leaves out the time threads waited for a CPU.
inline double processCpuSeconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke test (same code paths, seconds-scale run).
  bool tiny = false;
  /// Where a traced run writes its Perfetto JSON and self-time table.
  std::string outDir = ".";
  /// Server ingest threads (min(nproc, 4)); the scheduler delivers on one.
  unsigned ingestThreads = 1;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload run hands back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;

  /// Counts one checked operation; a false `ok` is a failure and is
  /// printed with `what` so a failing run says why.
  void check(bool ok, const std::string& what);
};

/// Latency samples of repeated identical work.  Every iteration of a
/// workload makes the same calls on the same inputs in the same order, so
/// the i-th sample of one iteration times the same call as the i-th sample
/// of every other.  Each position keeps its fastest repeat, and quantiles
/// are taken over those.  CPU time already leaves out the time the thread
/// waited, but other tenants of a shared machine still slow it down through
/// shared caches, memory and hyperthread siblings, by tens of percent for
/// seconds at a time.  They only ever slow it down, so the fastest repeat
/// of each call is the steadiest measure of the code's own speed, and a
/// slow stretch costs a run nothing as long as every call also ran once
/// outside it.  Memory is one double per call of an iteration.
class FastestSamples {
 public:
  void add(double value) {
    if (next_ < best_.size()) {
      best_[next_] = std::min(best_[next_], value);
    } else {
      best_.push_back(value);
    }
    ++next_;
    ++count_;
  }
  /// Ends an iteration: the next sample is the first call's again.
  void endIteration() noexcept { next_ = 0; }
  /// Nearest-rank quantile of the per-call fastest repeats.
  [[nodiscard]] double quantile(double q) const;
  /// Sum of the per-call fastest repeats: an iteration's time with every
  /// piece at its fastest.
  [[nodiscard]] double sum() const noexcept {
    double total = 0.0;
    for (const double v : best_) total += v;
    return total;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t calls() const noexcept { return best_.size(); }

 private:
  std::vector<double> best_;
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
};

/// Calls into the library, timed from outside.  Names follow the layer
/// they belong to; the per-layer metrics are named after them.
enum class Stage : std::uint8_t {
  kAddClips,     // stream::MediaServer::addClips
  kMixGen,       // soak::generateTrafficMix
  kProfile,      // media::profileClip
  kEngine,       // core::annotate over stored stats
  kTrackEncode,  // core::encodeTrack
  kLookup,       // stream::MediaServer::annotationFor (TrackCache)
  kCapsEncode,   // stream::encodeCapabilities
  kCompensate,   // core::compensateClip
  kEncode,       // media::encodeClip
  kComplexity,   // power::ComplexityTrack::fromEncodedClip
  kMux,          // stream::mux
  kServe,        // stream::MediaServer::serve
  kJoin,         // stream::SessionScheduler::join
  kLeave,        // stream::SessionScheduler::leave
  kTick,         // stream::SessionScheduler::tick
  kFanout,       // stream::ProxyNode::transcodeFanout
  kReceive,      // stream::ClientSession::receive
  kDemux,        // stream::demux
  kDecode,       // media::decodeClip
  kSchedule,     // core::buildSchedule
  kInject,       // fault::injectFaults
  kCount
};

[[nodiscard]] const char* stageName(Stage stage) noexcept;

/// True for calls the serving loop makes itself; false for the replays a
/// traced run adds to split a call into its layers.
[[nodiscard]] bool isServingCall(Stage stage) noexcept;

/// Per-stage accounting.  `selfNs` is the stage's time minus the time of
/// stages timed inside it.
struct StageTotals {
  double totalNs = 0.0;
  double selfNs = 0.0;
  std::uint64_t calls = 0;
  double units = 0.0;  ///< frames, bytes, clients: whatever the stage counts
};

class Ledger {
 public:
  /// Times one call in the driving thread's CPU time (threadCpuNs).
  /// Always measures (end-to-end latencies come from here); adds to the
  /// ledger and emits a trace span only while tracing.
  class Scope {
   public:
    Scope(Ledger& ledger, Stage stage, std::uint64_t sessionId = 0,
          double units = 0.0);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }
    /// Sets the units (frames, bytes, ...) the call handled, for calls
    /// that only know them once they return.
    void setUnits(double units) noexcept { units_ = units; }
    /// Ends the scope now; returns its CPU time in nanoseconds.
    double stop();

   private:
    Ledger& ledger_;
    Stage stage_;
    double units_;
    double startNs_;
    double elapsedNs_ = -1.0;
  };

  /// `trace` may be null (then nothing is ever recorded as spans).
  explicit Ledger(anno::telemetry::TraceRecorder* trace) : trace_(trace) {}

  /// Traced iterations add to the stage totals and the trace; untraced
  /// ones only add their serving-call time to the baseline below.
  void setTracing(bool on) noexcept { tracing_ = on; }
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  [[nodiscard]] const StageTotals& totals(Stage stage) const {
    return totals_[static_cast<std::size_t>(stage)];
  }
  /// Serving-call nanoseconds spent in untraced / traced iterations.
  [[nodiscard]] double servingNs(bool traced) const noexcept {
    return servingNs_[traced ? 1 : 0];
  }

 private:
  friend class Scope;

  anno::telemetry::TraceRecorder* trace_;
  bool tracing_ = false;
  std::array<StageTotals, static_cast<std::size_t>(Stage::kCount)> totals_{};
  std::array<double, 2> servingNs_{};
  /// Child time accumulated under each open scope (innermost last).
  std::vector<double> childNs_;
};

/// Driving-thread CPU time of a traced run's traced iterations, and what
/// they did; the per-layer metrics every workload reports are derived from
/// this.
struct TracedRun {
  double cpuNs = 0.0;            ///< traced iterations, set-up included
  std::uint64_t iterations = 0;  ///< traced iterations run
  std::uint64_t untracedIterations = 0;
};

/// Appends every per-layer metric (see README.md) computed from `ledger`.
/// `extra` holds the workload's own counters, keyed by metric name; names
/// the workload does not exercise are reported as 0.
void appendPerLayer(const Ledger& ledger, const TracedRun& run,
                    const std::vector<Metric>& extra, Result& result);

/// Writes the Perfetto JSON and the per-stage self-time table of a traced
/// run under `opts.outDir`, and prints the table.
void writeTraceArtifacts(const Options& opts,
                         const anno::telemetry::TraceRecorder& trace,
                         const Ledger& ledger, const TracedRun& run);

/// The three workloads.
Result runFleetJoin(const Options& opts);
Result runDiurnalSoak(const Options& opts);
Result runProxyLive(const Options& opts);

}  // namespace servebench
