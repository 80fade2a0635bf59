#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.  The process has one
// recorder, so one stack per thread is enough.
thread_local std::vector<int> open_spans;

constexpr double kTolerance = 1e-9;

/// Length of the union of `intervals`, clipped to [lo, hi].
double Covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

/// Children intervals of every span; with `same_thread`, only the children
/// recorded on their parent's thread.
std::vector<std::vector<std::pair<double, double>>> ChildIntervals(
    const std::vector<Span>& spans, bool same_thread) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(s.parent);
    if (same_thread && spans[parent].thread != s.thread) continue;
    children[parent].emplace_back(s.start, s.end);
  }
  return children;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::ThreadNumber() {
  const auto key = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const auto it = threads_.find(key);
  if (it != threads_.end()) return it->second;
  const int number = static_cast<int>(threads_.size());
  threads_.emplace(key, number);
  return number;
}

int SpanRecorder::Begin(const std::string& name, std::uint64_t job,
                        int parent) {
  if (!enabled_) return -1;
  const double start = Now();
  if (parent == kInnermost) {
    parent = open_spans.empty() ? -1 : open_spans.back();
  }
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start, start, parent, job, ThreadNumber()});
  }
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const double end = Now();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

int SpanRecorder::Add(const std::string& name, double start, double end,
                      int parent, std::uint64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  const int thread = parent >= 0
                         ? spans_[static_cast<std::size_t>(parent)].thread
                         : ThreadNumber();
  spans_.push_back(Span{name, start, end, parent, job, thread});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu}}",
                  first ? "" : ",", s.name.c_str(), s.thread, s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.job));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  const auto children = ChildIntervals(spans, /*same_thread=*/false);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end - spans[i].start) -
              Covered(children[i], spans[i].start, spans[i].end);
  }
  return self;
}

std::string CheckSpans(const std::vector<Span>& spans) {
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) ends before it starts",
                    i, s.name.c_str());
      return buf;
    }
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) precedes its parent", i,
                    s.name.c_str());
      return buf;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start < p.start - kTolerance || s.end > p.end + kTolerance) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) escapes parent %s", i,
                    s.name.c_str(), p.name.c_str());
      return buf;
    }
  }
  // A span's self time plus what only its children on other threads cover
  // is its duration minus what its children on its own thread cover.
  // Parents precede children, so one forward sweep finds each span's
  // thread-tree root.
  const auto own_children = ChildIntervals(spans, /*same_thread=*/true);
  std::vector<int> root(spans.size());
  std::vector<double> tree_self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    const bool starts_tree =
        parent < 0 ||
        spans[static_cast<std::size_t>(parent)].thread != spans[i].thread;
    root[i] = starts_tree ? static_cast<int>(i)
                          : root[static_cast<std::size_t>(parent)];
    tree_self[static_cast<std::size_t>(root[i])] +=
        (spans[i].end - spans[i].start) -
        Covered(own_children[i], spans[i].start, spans[i].end);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root[i] != static_cast<int>(i)) continue;
    const double duration = spans[i].end - spans[i].start;
    if (std::fabs(tree_self[i] - duration) >
        kTolerance * std::max(1.0, duration) * 1e3) {
      std::snprintf(buf, sizeof(buf),
                    "self times of root %zu (%s) sum to %.9f s, span %.9f s",
                    i, spans[i].name.c_str(), tree_self[i], duration);
      return buf;
    }
  }
  return "";
}

std::string SelfTestSpans() {
  // root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [5,9]: self times are
  // root 3, a 2, a1 1, b 4, summing to the root's 10.
  std::vector<Span> tree = {{"root", 0, 10, -1, 0, 0},
                            {"a", 1, 4, 0, 0, 0},
                            {"a1", 2, 3, 1, 0, 0},
                            {"b", 5, 9, 0, 0, 0}};
  const std::vector<double> self = SelfTimes(tree);
  const std::vector<double> want = {3, 2, 1, 4};
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::fabs(self[i] - want[i]) > kTolerance) {
      return "self time of " + tree[i].name + " is wrong";
    }
  }
  if (!CheckSpans(tree).empty()) return "a valid tree was rejected";

  std::vector<Span> escaping = tree;
  escaping[2].end = 4.5;  // a1 outlives a
  if (CheckSpans(escaping).empty()) return "an escaping child was accepted";

  std::vector<Span> overlapping = tree;
  overlapping[3].start = 3;  // b overlaps a: self times over-count the root
  if (CheckSpans(overlapping).empty()) {
    return "overlapping siblings were accepted";
  }

  // root [0,10] on thread 0 with concurrent children on threads 1 and 2:
  // c1 [1,8] -> c1a [3,4], c2 [2,9].  Self times are root 10 - 8 = 2, c1 6,
  // c1a 1, c2 7; each thread's tree partitions its own time.
  std::vector<Span> concurrent = {{"root", 0, 10, -1, 0, 0},
                                  {"c1", 1, 8, 0, 0, 1},
                                  {"c1a", 3, 4, 1, 0, 1},
                                  {"c2", 2, 9, 0, 0, 2}};
  const std::vector<double> cself = SelfTimes(concurrent);
  const std::vector<double> cwant = {2, 6, 1, 7};
  for (std::size_t i = 0; i < cwant.size(); ++i) {
    if (std::fabs(cself[i] - cwant[i]) > kTolerance) {
      return "self time of concurrent " + concurrent[i].name + " is wrong";
    }
  }
  if (!CheckSpans(concurrent).empty()) {
    return "concurrent children on other threads were rejected";
  }
  std::vector<Span> clash = concurrent;
  clash.push_back({"c1b", 3.5, 5, 1, 0, 1});  // overlaps c1a on thread 1
  if (CheckSpans(clash).empty()) {
    return "overlapping siblings on one thread were accepted";
  }

  // Live recorder: nested scopes produce the same parent links.
  SpanRecorder recorder;
  recorder.set_enabled(true);
  {
    ScopedSpan outer(recorder, "outer");
    { ScopedSpan inner(recorder, "inner", 7); }
    std::thread worker([&recorder, parent = outer.id()] {
      ScopedSpan span(recorder, "worker", 0, parent);
      const double now = recorder.Now();
      recorder.Add("derived", now, now, span.id());
    });
    worker.join();
  }
  const std::vector<Span> live = recorder.spans();
  if (live.size() != 4 || live[1].parent != 0 || live[1].job != 7 ||
      live[0].parent != -1 || live[2].parent != 0 ||
      live[2].thread == live[0].thread || live[3].parent != 2 ||
      live[3].thread != live[2].thread) {
    return "recorder nesting is wrong";
  }
  if (!CheckSpans(live).empty()) return "recorded spans fail the check";
  return "";
}

}  // namespace perfbench
