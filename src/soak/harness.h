// The canned server -> proxy -> client -> loss workload shared by the
// observability tools (tools/metrics_dump, tools/trace_report) and the soak
// tool's smoke pass.  One end-to-end pass over every layer of the paper's
// Fig. 1, either with every arm or narrowed to a single session.
#pragma once

namespace anno::telemetry {
class Registry;
class TraceRecorder;
}

namespace anno::soak {

/// Who observes the canned workload, and whether it runs every arm.
struct HarnessOptions {
  /// Annotator worker threads (cosmetic: all outputs bit-identical).
  unsigned threads = 1;
  /// When set, every layer's metrics hooks attach here (server, proxy,
  /// client, codec, pool, loss, fault, engine observer).
  telemetry::Registry* registry = nullptr;
  /// When set, every layer's trace hooks attach here (engine scene spans,
  /// server/proxy/client spans, pool + loss events).
  telemetry::TraceRecorder* trace = nullptr;
  /// false: every arm runs -- a second clip for the proxy transcode, the
  /// proxy's stream into the client, the fault corpora, a negotiation
  /// mismatch, a lossy video hop and a per-frame track over the lossy
  /// annotation hop with and without NACK.  true: one clip, one session --
  /// the proxy re-annotates the primary clip, the client receives only the
  /// server stream and the per-scene track crosses the hop with NACK only,
  /// so a single-session timeline stays reconstructable.  The server path
  /// and the stalling playback simulation run either way.
  bool singleSession = false;
};

/// Runs the workload.  Attach/detach of module-level hooks (codec, pool,
/// loss, fault) is handled internally; the registry/recorder must outlive
/// the call.
void runCannedWorkload(const HarnessOptions& opts);

}  // namespace anno::soak
