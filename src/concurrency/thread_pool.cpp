#include "concurrency/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::concurrency {

namespace {

/// Aggregate pool instruments, published once by attachPoolTelemetry.  Hot
/// paths load one atomic pointer; detached (nullptr) costs a branch.
struct PoolTelemetry {
  telemetry::Counter* workersStarted = nullptr;
  telemetry::Counter* chunkedCalls = nullptr;
  telemetry::Counter* serialCalls = nullptr;
  telemetry::Counter* tasksRun = nullptr;
  telemetry::Counter* callerChunks = nullptr;
  telemetry::Gauge* queueHighWater = nullptr;
};
std::atomic<const PoolTelemetry*> g_poolTelemetry{nullptr};

const PoolTelemetry* poolTelemetry() noexcept {
  return g_poolTelemetry.load(std::memory_order_acquire);
}

std::atomic<telemetry::TraceRecorder*> g_poolTrace{nullptr};

telemetry::TraceRecorder* poolTrace() noexcept {
  return g_poolTrace.load(std::memory_order_acquire);
}

}  // namespace

void attachPoolTelemetry(telemetry::Registry& registry) {
  static PoolTelemetry block;
  block.workersStarted = &registry.counter(
      "anno_pool_workers_started_total", {},
      "Worker threads spawned across all thread pools");
  block.chunkedCalls = &registry.counter(
      "anno_pool_chunked_calls_total", {},
      "Pooled runChunked invocations (caller participates in each)");
  block.serialCalls = &registry.counter(
      "anno_pool_serial_calls_total", {},
      "runChunked invocations on the serial fast path");
  block.tasksRun = &registry.counter(
      "anno_pool_tasks_run_total", {},
      "Chunks executed on any thread");
  block.callerChunks = &registry.counter(
      "anno_pool_caller_chunks_total", {},
      "Chunks executed by the calling (participating) thread");
  block.queueHighWater = &registry.gauge(
      "anno_pool_queue_depth_high_water", {},
      "Maximum helper tasks ever enqueued at once");
  g_poolTelemetry.store(&block, std::memory_order_release);
}

void detachPoolTelemetry() noexcept {
  g_poolTelemetry.store(nullptr, std::memory_order_release);
}

void attachPoolTrace(telemetry::TraceRecorder& trace) noexcept {
  g_poolTrace.store(&trace, std::memory_order_release);
}

void detachPoolTrace() noexcept {
  g_poolTrace.store(nullptr, std::memory_order_release);
}

unsigned resolveThreads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

PoolLease leaseFor(unsigned threads) {
  if (resolveThreads(threads) <= 1) return {};
  PoolLease lease;
  if (threads == 0) {
    lease.pool = &ThreadPool::shared();
  } else {
    lease.owned = std::make_unique<ThreadPool>(threads);
    lease.pool = lease.owned.get();
  }
  return lease;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = resolveThreads(threads);
  const unsigned workerCount = total > 1 ? total - 1 : 0;
  workers_.reserve(workerCount);
  for (unsigned i = 0; i < workerCount; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  if (const PoolTelemetry* m = poolTelemetry()) {
    telemetry::inc(m->workersStarted, workerCount);
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one runChunked call.  Helpers hold it by shared_ptr: a
/// helper task may be dequeued after the batch already finished (the caller
/// claimed every chunk itself), in which case it finds no work and returns.
struct ChunkBatch {
  std::size_t chunks = 0;
  std::function<void(std::size_t)> fn;
  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable doneCv;
  std::size_t done = 0;  // guarded by mu
  std::size_t errorChunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;  // lowest-index chunk's exception; guarded by mu

  void run(bool isCaller) {
    telemetry::TraceRecorder* const trace = poolTrace();
    if (trace != nullptr && !isCaller) trace->nameThisThread("pool-worker");
    std::size_t executed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks) break;
      ++executed;
      std::exception_ptr err;
      {
        // Per-chunk span on this thread's track (cat "pool": scheduling-
        // dependent, exempt from determinism checks).
        telemetry::TraceSpan span(trace, "task", "pool",
                                  {{"chunk", static_cast<double>(i)}});
        try {
          fn(i);
        } catch (...) {
          err = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      if (err && i < errorChunk) {
        errorChunk = i;
        error = std::move(err);  // no worker-held copy outlives the lock
      }
      if (++done == chunks) doneCv.notify_all();
    }
    if (executed == 0) return;
    if (const PoolTelemetry* m = poolTelemetry()) {
      telemetry::inc(m->tasksRun, executed);
      if (isCaller) telemetry::inc(m->callerChunks, executed);
    }
  }
};

}  // namespace

void ThreadPool::runChunked(std::size_t chunks,
                            const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  const PoolTelemetry* const metrics = poolTelemetry();
  if (workers_.empty() || chunks == 1) {
    // Serial fast path; exceptions propagate directly.
    if (metrics != nullptr) {
      telemetry::inc(metrics->serialCalls);
      telemetry::inc(metrics->tasksRun, chunks);
      telemetry::inc(metrics->callerChunks, chunks);
    }
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
    return;
  }
  if (metrics != nullptr) telemetry::inc(metrics->chunkedCalls);
  auto batch = std::make_shared<ChunkBatch>();
  batch->chunks = chunks;
  batch->fn = fn;
  const std::size_t helpers = std::min<std::size_t>(workers_.size(), chunks - 1);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.emplace_back([batch] { batch->run(/*isCaller=*/false); });
    }
    // Measured at enqueue time, under the same lock hold, so the high-water
    // mark is well-defined (workers have not started draining this batch).
    if (metrics != nullptr) {
      telemetry::updateMax(metrics->queueHighWater,
                           static_cast<std::int64_t>(tasks_.size()));
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
  batch->run(/*isCaller=*/true);  // caller participates; progress when nested
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->doneCv.wait(lock, [&] { return batch->done == batch->chunks; });
    // Take sole ownership under the lock: a worker may still drop the last
    // batch reference, and must not release an exception being handled.
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace anno::concurrency
