// The benchmark's own span recorder.  The benchmark wraps each call it
// makes into a layer of the program in a span; the program itself is not
// instrumented.  Spans stay in memory and are written once, when the run
// ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     // index into the recorder's spans, -1 for a root
  std::uint64_t job = 0;
  int thread = 0;      // recorder-assigned thread number
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Set only while no other thread records (client threads are started
  /// and joined inside a pass).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Seconds since the recorder was created (the spans' time base).
  double Now() const;

  /// Opens a span under `parent`, by default the calling thread's innermost
  /// open span (a span that starts a thread's work passes the spawning
  /// thread's span); returns its id, or -1 while disabled.
  static constexpr int kInnermost = -2;
  int Begin(const std::string& name, std::uint64_t job = 0,
            int parent = kInnermost);
  void End(int id);
  /// Records a finished span with explicit bounds under `parent`, on the
  /// parent's thread (for intervals the benchmark derives instead of
  /// observing directly).
  int Add(const std::string& name, double start, double end, int parent,
          std::uint64_t job = 0);

  std::vector<Span> spans() const;
  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int ThreadNumber();

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, int> threads_;  // hashed thread id -> number
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             std::uint64_t job = 0, int parent = SpanRecorder::kInnermost)
      : recorder_(recorder), id_(recorder.Begin(name, job, parent)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Self time of each span: its duration minus the part of its interval
/// that the union of its children, on any thread, covers.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Checks that every child lies inside its parent, and that the spans of
/// each thread partition its time: for every span that starts a thread's
/// tree (a root, or a child of a span on another thread), the self times
/// of that tree's spans on its thread, plus the time their children on
/// other threads cover, sum to its duration.  Concurrent children on
/// other threads may overlap each other; children on one thread may not.
/// Returns an empty string when the spans pass, else the first violation.
std::string CheckSpans(const std::vector<Span>& spans);

/// Exercises SelfTimes/CheckSpans on hand-built trees with known answers;
/// returns an empty string on success.
std::string SelfTestSpans();

}  // namespace perfbench
