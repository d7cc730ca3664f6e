#include "telemetry/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "telemetry/export.h"  // escapeJson / formatDouble, shared with metrics

namespace anno::telemetry {
namespace {

/// Process-unique recorder ids; the thread-local fast-path cache is keyed
/// on the id rather than the recorder address so a recorder destroyed and
/// another allocated at the same address can never alias a stale cache
/// entry on a long-lived thread (pool workers outlive recorders).
std::atomic<std::uint64_t> g_nextRecorderId{1};

struct ThreadCache {
  std::uint64_t recorderId = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

constexpr const char* kTypeNames[kTraceEventTypeCount] = {
    "span_begin", "span_end", "instant", "counter", "metadata"};

}  // namespace

const char* traceEventTypeName(TraceEventType type) noexcept {
  const auto i = static_cast<std::size_t>(type);
  return i < kTraceEventTypeCount ? kTypeNames[i] : "unknown";
}

TraceRecorder::TraceRecorder(TraceConfig cfg)
    : cfg_(cfg),
      id_(g_nextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.eventsPerThread == 0) cfg_.eventsPerThread = 1;
}

TraceRecorder::~TraceRecorder() = default;

std::int64_t TraceRecorder::nowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer& TraceRecorder::bufferForThisThread() {
  if (t_cache.recorderId == id_) {
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  // Slow path: first event from this thread on this recorder.
  const std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>(
      cfg_.eventsPerThread, static_cast<std::uint32_t>(buffers_.size() + 1));
  ThreadBuffer& ref = *buf;
  buffers_.push_back(std::move(buf));
  t_cache = {id_, &ref};
  return ref;
}

void TraceRecorder::emit(TraceEvent ev, std::initializer_list<TraceArg> args) {
  ThreadBuffer& buf = bufferForThisThread();
  // Only the owning thread advances head, so a relaxed load observes our
  // own latest value.
  const std::uint64_t h = buf.head.load(std::memory_order_relaxed);
  if (h >= buf.slots.size()) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    telemetry::add(metrics_.droppedEvents, 1);
    return;
  }
  ev.wallNanos = nowNanos();
  ev.mediaSeconds = buf.mediaNow;
  std::size_t i = 0;
  for (const TraceArg& a : args) {
    if (i >= ev.args.size()) break;
    ev.args[i++] = a;
  }
  buf.slots[h] = ev;
  // Publish: the slot write must be visible before the new head.
  buf.head.store(h + 1, std::memory_order_release);
}

void TraceRecorder::spanBegin(const char* name, const char* cat,
                              std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = TraceEventType::kSpanBegin;
  emit(ev, args);
}

void TraceRecorder::spanEnd(const char* name, const char* cat,
                            std::initializer_list<TraceArg> args,
                            const char* strKey, const char* strValue) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = TraceEventType::kSpanEnd;
  ev.strKey = strKey;
  ev.strValue = strValue;
  emit(ev, args);
}

void TraceRecorder::instant(const char* name, const char* cat,
                            std::initializer_list<TraceArg> args,
                            const char* strKey, const char* strValue) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = TraceEventType::kInstant;
  ev.strKey = strKey;
  ev.strValue = strValue;
  emit(ev, args);
}

void TraceRecorder::counter(const char* name, const char* cat, double value) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = TraceEventType::kCounter;
  ev.value = value;
  emit(ev, {});
}

void TraceRecorder::metadata(const char* name, const char* cat,
                             std::initializer_list<TraceArg> args,
                             const char* strKey, const char* strValue) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.type = TraceEventType::kMetadata;
  ev.strKey = strKey;
  ev.strValue = strValue;
  emit(ev, args);
}

void TraceRecorder::setMediaTime(double seconds) {
  bufferForThisThread().mediaNow = seconds;
}

void TraceRecorder::clearMediaTime() {
  bufferForThisThread().mediaNow = std::numeric_limits<double>::quiet_NaN();
}

void TraceRecorder::nameThisThread(const char* name) {
  bufferForThisThread().threadName.store(name, std::memory_order_relaxed);
}

const char* TraceRecorder::intern(std::string_view s) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = interned_.find(s);
  if (it == interned_.end()) {
    it = interned_
             .emplace(std::string(s), std::make_unique<std::string>(s))
             .first;
    telemetry::set(metrics_.internPoolSize,
                   static_cast<std::int64_t>(interned_.size()));
  }
  return it->second->c_str();
}

void TraceRecorder::attachTelemetry(Registry& registry) {
  metrics_.droppedEvents = &registry.gauge(
      "anno_trace_dropped_events", {},
      "Trace events lost because a thread's ring buffer was full");
  metrics_.internPoolSize = &registry.gauge(
      "anno_trace_intern_pool_size", {},
      "Distinct strings held by the recorder's intern pool");
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t dropped = 0;
  for (const auto& buf : buffers_) {
    dropped += static_cast<std::int64_t>(
        buf->dropped.load(std::memory_order_relaxed));
  }
  metrics_.droppedEvents->set(dropped);
  metrics_.internPoolSize->set(static_cast<std::int64_t>(interned_.size()));
}

void TraceRecorder::detachTelemetry() noexcept { metrics_ = Telemetry{}; }

std::uint64_t TraceRecorder::recordedEvents() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += std::min<std::uint64_t>(buf->head.load(std::memory_order_acquire),
                                     buf->slots.size());
  }
  return total;
}

std::uint64_t TraceRecorder::droppedEvents() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

bool operator==(const TraceSnapshotEvent& a, const TraceSnapshotEvent& b) {
  const bool mediaEqual =
      a.mediaSeconds == b.mediaSeconds ||
      (std::isnan(a.mediaSeconds) && std::isnan(b.mediaSeconds));
  return mediaEqual && a.name == b.name && a.cat == b.cat &&
         a.type == b.type && a.tid == b.tid && a.wallNanos == b.wallNanos &&
         a.value == b.value && a.args == b.args && a.strKey == b.strKey &&
         a.strValue == b.strValue;
}

TraceSnapshot snapshotTrace(const TraceRecorder& recorder) {
  TraceSnapshot snap;
  const std::lock_guard<std::mutex> lock(recorder.mu_);
  for (const auto& bufPtr : recorder.buffers_) {
    const TraceRecorder::ThreadBuffer& buf = *bufPtr;
    // Acquire pairs with the writer's release store: all slots below the
    // observed head are fully written and immutable.
    const std::uint64_t published = std::min<std::uint64_t>(
        buf.head.load(std::memory_order_acquire), buf.slots.size());
    for (std::uint64_t i = 0; i < published; ++i) {
      const TraceEvent& ev = buf.slots[i];
      TraceSnapshotEvent out;
      out.name = ev.name != nullptr ? ev.name : "";
      out.cat = ev.cat != nullptr ? ev.cat : "";
      out.type = ev.type;
      out.tid = buf.tid;
      out.wallNanos = ev.wallNanos;
      out.mediaSeconds = ev.mediaSeconds;
      out.value = ev.value;
      for (const TraceArg& a : ev.args) {
        if (a.key == nullptr) break;
        out.args.emplace_back(a.key, a.value);
      }
      if (ev.strKey != nullptr) {
        out.strKey = ev.strKey;
        out.strValue = ev.strValue != nullptr ? ev.strValue : "";
      }
      snap.events.push_back(std::move(out));
    }
    const char* name = buf.threadName.load(std::memory_order_relaxed);
    snap.threads.emplace_back(buf.tid, name != nullptr ? name : "");
    snap.droppedEvents += buf.dropped.load(std::memory_order_relaxed);
  }
  // Global time order; stable so each thread's emission order is kept for
  // equal timestamps (coarse clocks make ties common).
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceSnapshotEvent& a, const TraceSnapshotEvent& b) {
                     if (a.wallNanos != b.wallNanos)
                       return a.wallNanos < b.wallNanos;
                     return a.tid < b.tid;
                   });
  return snap;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

namespace {

/// Chrome `ph` phase letter for each event type.
char phaseLetter(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSpanBegin: return 'B';
    case TraceEventType::kSpanEnd: return 'E';
    case TraceEventType::kInstant: return 'i';
    case TraceEventType::kCounter: return 'C';
    case TraceEventType::kMetadata: return 'M';
  }
  return 'i';
}

std::string jsonNumber(double v) {
  // JSON has no NaN/Inf; those never reach here (callers filter), but be
  // defensive anyway.
  if (!std::isfinite(v)) return "null";
  return formatDouble(v);
}

}  // namespace

std::string toChromeTraceJson(const TraceSnapshot& snapshot) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[96];
  auto append = [&](const std::string& body) {
    out += first ? "\n" : ",\n";
    first = false;
    out += body;
  };

  // Thread-track names first: standard chrome metadata events Perfetto
  // uses to label the per-thread (and per-pool-worker) tracks.
  for (const auto& [tid, name] : snapshot.threads) {
    if (name.empty()) continue;
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"",
                  tid);
    append(std::string(buf) + escapeJson(name) + "\"}}");
  }

  for (const TraceSnapshotEvent& ev : snapshot.events) {
    std::string body = "{\"ph\":\"";
    body += phaseLetter(ev.type);
    body += "\",\"name\":\"" + escapeJson(ev.name) + "\",\"cat\":\"" +
            escapeJson(ev.cat) + "\"";
    // ts is microseconds in the trace-event format.
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                  static_cast<double>(ev.wallNanos) / 1000.0, ev.tid);
    body += buf;
    if (ev.type == TraceEventType::kInstant) body += ",\"s\":\"t\"";
    // Args: counters render their sample as the counter series value;
    // everything else carries its numeric/string args plus the media
    // clock, so both clocks survive into the Perfetto UI.
    body += ",\"args\":{";
    bool firstArg = true;
    auto arg = [&](const std::string& k, const std::string& renderedValue) {
      if (!firstArg) body += ",";
      firstArg = false;
      body += "\"" + escapeJson(k) + "\":" + renderedValue;
    };
    if (ev.type == TraceEventType::kCounter) {
      arg("value", jsonNumber(ev.value));
    }
    for (const auto& [k, v] : ev.args) arg(k, jsonNumber(v));
    if (!ev.strKey.empty()) {
      arg(ev.strKey, "\"" + escapeJson(ev.strValue) + "\"");
    }
    if (std::isfinite(ev.mediaSeconds)) {
      arg("media_t", formatDouble(ev.mediaSeconds));
    }
    body += "}}";
    append(body);
  }
  std::snprintf(buf, sizeof buf,
                "\n],\"displayTimeUnit\":\"ms\","
                "\"otherData\":{\"droppedEvents\":%llu}}\n",
                static_cast<unsigned long long>(snapshot.droppedEvents));
  out += buf;
  return out;
}

// ---------------------------------------------------------------------------
// Dump serialization (offline replay)
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kDumpMagic = "ANNOTRACE 1";

/// Escapes a dump field so fields can be tab-separated and records
/// newline-separated regardless of content.
std::string escapeDumpField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescapeDumpField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) throw std::runtime_error("trace dump: bad escape");
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: throw std::runtime_error("trace dump: bad escape");
    }
  }
  return out;
}

std::string dumpDouble(double v) {
  if (std::isnan(v)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parseDumpDouble(const std::string& s) {
  if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("trace dump: bad number '" + s + "'");
  }
  return v;
}

std::uint64_t parseDumpU64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("trace dump: bad integer '" + s + "'");
  }
  return v;
}

std::int64_t parseDumpI64(const std::string& s) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("trace dump: bad integer '" + s + "'");
  }
  return v;
}

std::vector<std::string> splitFields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  // Split on raw tabs only: escaped tabs inside fields are "\t" two-byte
  // sequences, never a 0x09 byte.
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields.push_back(unescapeDumpField(line.substr(start, i - start)));
      start = i + 1;
    }
  }
  return fields;
}

}  // namespace

std::string serializeTraceDump(const TraceSnapshot& snapshot) {
  std::string out(kDumpMagic);
  out += "\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "d\t%llu\n",
                static_cast<unsigned long long>(snapshot.droppedEvents));
  out += buf;
  for (const auto& [tid, name] : snapshot.threads) {
    std::snprintf(buf, sizeof buf, "t\t%u\t", tid);
    out += buf;
    out += escapeDumpField(name) + "\n";
  }
  for (const TraceSnapshotEvent& ev : snapshot.events) {
    std::snprintf(buf, sizeof buf, "e\t%u\t%u\t%lld\t",
                  static_cast<unsigned>(ev.type), ev.tid,
                  static_cast<long long>(ev.wallNanos));
    out += buf;
    out += dumpDouble(ev.mediaSeconds) + "\t" + dumpDouble(ev.value) + "\t" +
           escapeDumpField(ev.name) + "\t" + escapeDumpField(ev.cat) + "\t" +
           escapeDumpField(ev.strKey) + "\t" + escapeDumpField(ev.strValue);
    std::snprintf(buf, sizeof buf, "\t%zu", ev.args.size());
    out += buf;
    for (const auto& [k, v] : ev.args) {
      out += '\t';
      out += escapeDumpField(k);
      out += '\t';
      out += dumpDouble(v);
    }
    out += "\n";
  }
  return out;
}

TraceSnapshot parseTraceDump(std::string_view dump) {
  TraceSnapshot snap;
  std::size_t pos = 0;
  bool sawMagic = false;
  while (pos < dump.size()) {
    std::size_t eol = dump.find('\n', pos);
    if (eol == std::string_view::npos) eol = dump.size();
    const std::string_view line = dump.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (!sawMagic) {
      if (line != kDumpMagic) {
        throw std::runtime_error("trace dump: bad magic line");
      }
      sawMagic = true;
      continue;
    }
    const std::vector<std::string> f = splitFields(line);
    if (f[0] == "d") {
      if (f.size() != 2) throw std::runtime_error("trace dump: bad d record");
      snap.droppedEvents = parseDumpU64(f[1]);
    } else if (f[0] == "t") {
      if (f.size() != 3) throw std::runtime_error("trace dump: bad t record");
      snap.threads.emplace_back(
          static_cast<std::uint32_t>(parseDumpU64(f[1])), f[2]);
    } else if (f[0] == "e") {
      if (f.size() < 11) throw std::runtime_error("trace dump: bad e record");
      TraceSnapshotEvent ev;
      const std::uint64_t type = parseDumpU64(f[1]);
      if (type >= kTraceEventTypeCount) {
        throw std::runtime_error("trace dump: bad event type");
      }
      ev.type = static_cast<TraceEventType>(type);
      ev.tid = static_cast<std::uint32_t>(parseDumpU64(f[2]));
      ev.wallNanos = parseDumpI64(f[3]);
      ev.mediaSeconds = parseDumpDouble(f[4]);
      ev.value = parseDumpDouble(f[5]);
      ev.name = f[6];
      ev.cat = f[7];
      ev.strKey = f[8];
      ev.strValue = f[9];
      // Compare against the fields present: 11 + 2 * nargs can wrap.
      const std::uint64_t nargs = parseDumpU64(f[10]);
      if ((f.size() - 11) % 2 != 0 || nargs != (f.size() - 11) / 2) {
        throw std::runtime_error("trace dump: bad arg count");
      }
      for (std::uint64_t i = 0; i < nargs; ++i) {
        ev.args.emplace_back(f[11 + 2 * i], parseDumpDouble(f[12 + 2 * i]));
      }
      snap.events.push_back(std::move(ev));
    } else {
      throw std::runtime_error("trace dump: unknown record '" + f[0] + "'");
    }
  }
  if (!sawMagic) throw std::runtime_error("trace dump: empty input");
  return snap;
}

}  // namespace anno::telemetry
