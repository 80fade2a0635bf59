// One benchmark run: set-up, timed passes over a workload, correctness and
// determinism checks, and the metrics they yield.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off.  true: the separate traced run
  /// that yields the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace); empty = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (passes, jobs or set-ups); 1 for a count.
  std::int64_t samples = 1;
  /// For timings: the highest whole percentile with at least ten samples
  /// beyond it, and its value; tail_pct == 0 when there are too few.
  int tail_pct = 0;
  double tail = 0.0;
};

struct RunReport {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Wrong products, drifting virtual results, broken spans: anything that
  /// makes the run's numbers untrustworthy.  Non-empty => not correct.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Virtual-clock fingerprint: a hash of every executor's RunStats for
  /// this seed.  Equal across repetitions and runs of one commit.
  std::string virtual_fingerprint;
  /// Virtual makespan of one pass per executor (summed over products).
  std::vector<std::pair<std::string, double>> virtual_makespans;
  int passes = 0;
  int pool_threads = 0;
  int clients = 0;
  /// Completed served jobs of all passes, and those that ran in a batch of
  /// two or more.
  std::int64_t served_jobs = 0;
  std::int64_t batched_jobs = 0;
  /// Server rejections and timeouts after set-up.  Each is also a failed
  /// operation, so a run that counts has 0 of both; they are printed, not
  /// reported as metrics.
  std::int64_t serve_rejected = 0;
  std::int64_t serve_timed_out = 0;
};

RunReport RunBenchmark(const Workload& workload, const RunConfig& config);

}  // namespace perfbench
