// Two-clock benchmark of the out-of-core SpGEMM library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Prints a readable table, then one provenance JSON line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports the
// per-layer metrics.  Exits 1 when any product is wrong, any operation
// fails, the virtual clock drifts or the span self-test fails; 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/format.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using oocgemm::JsonEscape;  // returns the string quoted and escaped
using perfbench::Metric;
using perfbench::RunReport;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Provenance(const std::string& workload,
                       const perfbench::RunConfig& config,
                       const RunReport& report) {
  const double failed_frac =
      static_cast<double>(report.failed) /
      static_cast<double>(report.attempted > 0 ? report.attempted : 1);
  std::string s = "{\"provenance\":{\"workload\":" + JsonEscape(workload) +
                  ",\"seed\":" + std::to_string(config.seed) +
                  ",\"seconds\":" + Num(config.seconds) +
                  ",\"trace\":" + (config.trace ? "1" : "0") +
                  ",\"nproc\":" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\"pool_threads\":" + std::to_string(report.pool_threads) +
                  ",\"clients\":" + std::to_string(report.clients) +
                  ",\"build_type\":" + JsonEscape(PERFBENCH_BUILD_TYPE) +
                  ",\"compiler\":" + JsonEscape(PERFBENCH_COMPILER) +
                  ",\"passes\":" + std::to_string(report.passes) +
                  ",\"served_jobs\":" + std::to_string(report.served_jobs) +
                  ",\"batched_jobs\":" + std::to_string(report.batched_jobs) +
                  ",\"serve_rejected\":" +
                  std::to_string(report.serve_rejected) +
                  ",\"serve_timed_out\":" +
                  std::to_string(report.serve_timed_out) +
                  ",\"virtual_fingerprint\":" +
                  JsonEscape(report.virtual_fingerprint) +
                  ",\"virtual_makespan_s\":{";
  for (std::size_t i = 0; i < report.virtual_makespans.size(); ++i) {
    if (i > 0) s += ",";
    s += JsonEscape(report.virtual_makespans[i].first);
    s.append(":").append(Num(report.virtual_makespans[i].second));
  }
  s.append("}},\"failed_frac\":").append(Num(failed_frac));
  s += ",\"samples\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) s += ",";
    s += JsonEscape(m.name);
    s.append(":{\"n\":").append(std::to_string(m.samples));
    if (m.tail_pct > 0) {
      s.append(",\"tail_pct\":").append(std::to_string(m.tail_pct));
      s.append(",\"tail\":").append(Num(m.tail));
    }
    s += "}";
  }
  s += "},\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) s += ",";
    s += JsonEscape(report.errors[i]);
  }
  return s + "]}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--spans-out") {
      config.spans_out = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed" && number >= 0 && number < 9e15 &&
               number == static_cast<double>(static_cast<long long>(number))) {
      config.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && number > 0 && number <= 3600) {
      config.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      config.trace = number == 1;
      have_trace = true;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  perfbench::Workload w;
  if (!perfbench::MakeWorkload(workload, config.seed, &w)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  const RunReport report = perfbench::RunBenchmark(w, config);
  const bool correct = report.errors.empty() && report.failed == 0;

  std::printf("perfbench %s seed=%llu trace=%d passes=%d\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, report.passes);
  for (const auto& [executor, seconds] : report.virtual_makespans) {
    std::printf("  virtual makespan %-6s %.4f s\n", executor.c_str(),
                seconds);
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-40s %16.6g %-8s n=%lld", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
    if (m.tail_pct > 0) std::printf(" p%d=%.6g", m.tail_pct, m.tail);
    std::printf("\n");
  }
  std::printf("  %-40s %16.6g %-8s (%lld of %lld operations)\n",
              "failed_frac",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio", static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  std::printf("  %-40s %16lld %-8s\n", "serve.rejected",
              static_cast<long long>(report.serve_rejected), "count");
  std::printf("  %-40s %16lld %-8s\n", "serve.timed_out",
              static_cast<long long>(report.serve_timed_out), "count");
  std::printf("  %-40s %16lld %-8s (of %lld completed)\n", "batched jobs",
              static_cast<long long>(report.batched_jobs), "count",
              static_cast<long long>(report.served_jobs));
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench error: %s\n", e.c_str());
  }
  std::printf("%s\n", Provenance(workload, config, report).c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) line += ", ";
    line += JsonEscape(m.name);
    line.append(": {\"value\": ").append(Num(m.value));
    line.append(", \"unit\": ").append(JsonEscape(m.unit)).append("}");
  }
  std::printf("%s}}\n", line.c_str());
  return correct ? 0 : 1;
}
