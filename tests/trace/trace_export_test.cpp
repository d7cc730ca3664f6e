// Chrome trace-event exporter: the JSON must be syntactically valid (a
// mini recursive-descent validator below -- no external JSON dependency),
// carry the Perfetto-relevant shape (traceEvents array, M/B/E/i/C phases,
// microsecond timestamps, per-thread tracks), and escape hostile event
// names instead of emitting broken documents.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "telemetry/trace.h"

namespace anno::telemetry {
namespace {

/// Minimal JSON syntax validator (objects, arrays, strings with escapes,
/// numbers, true/false/null).  Returns true iff the whole input is one
/// valid value.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(
                    s_[pos_ + static_cast<std::size_t>(i)])) == 0) {
              return false;
            }
          }
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TraceSnapshot cannedSnapshot() {
  TraceRecorder trace;
  trace.nameThisThread("main");
  trace.metadata("session", "client", {{"frames", 86.0}, {"fps", 12.0}},
                 "clip", "themovie");
  trace.spanBegin("scene", "engine", {{"first_frame", 0.0}});
  trace.setMediaTime(0.5);
  trace.counter("clipped_fraction", "client", 0.03);
  trace.instant("backlight_switch", "client",
                {{"frame", 6.0}, {"level", 170.0}, {"gain_k", 1.4}});
  trace.clearMediaTime();
  trace.spanEnd("scene", "engine", {{"frames", 42.0}}, "reason",
                "luma_jump");
  return snapshotTrace(trace);
}

TEST(ChromeTraceJson, IsValidJson) {
  const std::string json = toChromeTraceJson(cannedSnapshot());
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
}

TEST(ChromeTraceJson, HasPerfettoShape) {
  const TraceSnapshot snap = cannedSnapshot();
  const std::string json = toChromeTraceJson(snap);
  // Top-level object with the traceEvents array + drop accounting.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
  // Thread-name metadata precedes the events.
  const auto namePos = json.find("\"thread_name\"");
  ASSERT_NE(namePos, std::string::npos);
  EXPECT_LT(namePos, json.find("\"ph\":\"B\""));
  // All five phases render with their Chrome letters.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // Instants carry thread scope; counters carry their value arg.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":0.03"), std::string::npos);
  // The media clock travels as an arg on stamped events only.
  EXPECT_NE(json.find("\"media_t\":0.5"), std::string::npos);
  // The string arg and the numeric args all surface.
  EXPECT_NE(json.find("\"reason\":\"luma_jump\""), std::string::npos);
  EXPECT_NE(json.find("\"gain_k\":1.4"), std::string::npos);
}

TEST(ChromeTraceJson, EscapesHostileNames) {
  TraceRecorder trace;
  const char* evil = trace.intern("a\"b\\c\nd\te\rf\x01g");
  trace.nameThisThread(evil);
  trace.instant(evil, "test", {{"n", 1.0}}, evil, evil);

  const std::string json = toChromeTraceJson(snapshotTrace(trace));
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\u0001g"), std::string::npos);
  // No raw control bytes anywhere in the document.
  for (const char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

TEST(ChromeTraceJson, EmptySnapshotIsStillValid) {
  const TraceSnapshot empty;
  const std::string json = toChromeTraceJson(empty);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(ChromeTraceJson, DropCountSurfaces) {
  TraceConfig cfg;
  cfg.eventsPerThread = 1;
  TraceRecorder trace(cfg);
  trace.instant("kept", "test");
  trace.instant("gone", "test");
  const std::string json = toChromeTraceJson(snapshotTrace(trace));
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"droppedEvents\":1"), std::string::npos);
}

}  // namespace
}  // namespace anno::telemetry
