#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/executors.hpp"
#include "estimate/estimator.hpp"
#include "kernels/cpu_spgemm.hpp"
#include "obs/metrics.hpp"
#include "partition/panel_plan.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "vgpu/device.hpp"

namespace perfbench {

namespace {

using oocgemm::StatusOr;
using oocgemm::ThreadPool;
using oocgemm::core::RunResult;
using oocgemm::core::RunStats;
using oocgemm::sparse::Csr;
namespace core = oocgemm::core;
namespace serve = oocgemm::serve;
namespace vgpu = oocgemm::vgpu;

// Half the four cores of the host the benchmark is tuned on: a pool as wide
// as the host splits every ParallelFor into one static block per core, and
// one preempted core then stalls the whole call, so the walls would measure
// the host's scheduler rather than the library.
constexpr int kPoolThreads = 2;
// One closed-loop client: each served job runs alone.  With two or more, a
// job's latency depends on which job the seeded order runs beside it (the
// jobs share the pool's queue, and a client beyond the server's workers
// queues behind the jobs in service), so the latency median followed the
// order and the host's scheduler more than the server.
constexpr int kClients = 1;
constexpr int kSetupReps = 21;
// Untraced passes per run at least; the median of three absorbs one slow
// pass.  A traced run alternates untraced and traced passes, one of each
// at least, so tracing overhead is measured inside one process.
constexpr int kMinPasses = 3;
constexpr int kMinTracedRunPasses = 2;
// ScaledV100Properties(10): the device every figure bench and the ROADMAP
// baselines use (16 MiB of device memory).
constexpr int kMemShift = 10;
// The tolerance the repository's tests compare products with.
constexpr double kRelTol = 1e-10;
constexpr double kAbsTol = 1e-12;
// Clock-resolution slack when the server's own executor wall time is
// checked against the latency the client measured around it.
constexpr double kReconcileSlack = 1e-6;

enum Executor { kCpu, kAsync, kHybrid, kNumExecutors };
const char* const kExecutorNames[kNumExecutors] = {"cpu", "async", "hybrid"};
const char* const kStrategies[] = {"hash", "dense", "sort", "merge"};
constexpr int kNumStrategies = 4;

/// Everything set-up builds: the objects a user of the library creates
/// before the first multiply.  Members are destroyed server first.
struct Rig {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<vgpu::Device> device;  // the server's device
  std::unique_ptr<serve::SpgemmServer> server;
};

std::unique_ptr<Rig> BuildRig() {
  auto rig = std::make_unique<Rig>();
  rig->pool = std::make_unique<ThreadPool>(kPoolThreads);
  rig->device =
      std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(kMemShift));
  // The default server (three workers, exact admission) with
  // operand-sharing batches on, as `oocgemm_cli serve --batch` enables them.
  serve::ServerConfig config;
  config.scheduler.max_batch_jobs = 8;
  rig->server =
      std::make_unique<serve::SpgemmServer>(*rig->device, *rig->pool, config);
  return rig;
}

bool Matches(const Csr& c, const Csr& reference) {
  return c.ApproxEquals(reference, kRelTol, kAbsTol);
}

/// Counts one operation; a failed one is also recorded as an error.
void CountOp(RunReport& report, bool ok, const std::string& what) {
  ++report.attempted;
  if (!ok) {
    ++report.failed;
    report.errors.push_back(what);
  }
}

/// Runs one executor on a device of its own, as the figure benches do:
/// RunStats::device_peak_bytes is the device's lifetime peak, so a shared
/// device would carry one run's peak into the next.
StatusOr<RunResult> RunExecutor(Executor e, ThreadPool& pool,
                                vgpu::Device& device, const Product& p) {
  const core::ExecutorOptions options;
  switch (e) {
    case kCpu:
      return core::CpuMulticore(*p.a, *p.b, options, pool);
    case kAsync:
      return core::AsyncOutOfCore(device, *p.a, *p.b, options, pool);
    default:
      return core::Hybrid(device, *p.a, *p.b, options, pool);
  }
}

std::string Describe(const std::string& op, const Product& p,
                     const oocgemm::Status& status) {
  return op + " on " + p.name + ": " +
         (status.ok() ? std::string("wrong product") : status.ToString());
}

/// Every virtual-clock field of a run, bit-exact (hex floats).
std::string VirtualKey(const RunStats& s) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "%a %lld %lld %a %a %a %a %a %a %a %a %lld %lld %lld %lld "
                "%lld %a %a %d %d %d %d %d",
                s.total_seconds, static_cast<long long>(s.flops),
                static_cast<long long>(s.nnz_out), s.compression_ratio,
                s.kernel_seconds, s.h2d_seconds, s.d2h_seconds,
                s.alloc_seconds, s.d2h_fraction, s.transfer_fraction,
                s.overlap_factor, static_cast<long long>(s.bytes_h2d),
                static_cast<long long>(s.bytes_d2h),
                static_cast<long long>(s.device_peak_bytes),
                static_cast<long long>(s.b_panel_uploads),
                static_cast<long long>(s.b_panel_hits), s.cpu_seconds,
                s.gpu_seconds, s.num_chunks, s.num_gpu_chunks,
                s.num_cpu_chunks, s.num_row_panels, s.num_col_panels);
  return buf;
}

std::string Fingerprint(const std::vector<std::string>& keys) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::string& k : keys) {
    for (unsigned char ch : k) {
      h ^= ch;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct JobTiming {
  double latency = 0.0;
  double submit = 0.0;
  double queue_wait = 0.0;
  double exec = 0.0;
};

struct PassResult {
  bool traced = false;
  double exec_wall[kNumExecutors] = {};
  std::vector<RunStats> stats[kNumExecutors];  // one per product
  std::vector<std::string> virtual_keys;

  // Layer calls, traced passes only (sums over the pass's products).
  double estimate_wall = 0.0;
  double estimate_abs_nnz_error = 0.0;
  double plan_wall = 0.0;
  std::int64_t row_panels = 0;
  std::int64_t col_panels = 0;
  double cpu_spgemm_wall = 0.0;
  double serial_wall = 0.0;
  double computed_bytes = 0.0;
  double rows[kNumStrategies] = {};

  // Serve pass.
  double serve_wall = 0.0;
  std::vector<JobTiming> jobs;
  std::int64_t via_cpu = 0;
  std::int64_t via_gpu = 0;
  std::int64_t via_hybrid = 0;
  std::int64_t batched = 0;  // completed jobs that ran in a batch of 2+
};

double KernelRows(const char* strategy) {
  return oocgemm::obs::MetricsRegistry::Default().Snapshot().Value(
      "oocgemm_kernel_rows", {{"strategy", strategy}});
}

/// Direct calls into the estimate, partition and kernels layers (traced
/// passes only).
void MeasureLayers(Rig& rig, const Product& p, SpanRecorder& rec,
                   PassResult& pass, RunReport& report) {
  const Csr& a = *p.a;
  const Csr& b = *p.b;
  {
    ScopedSpan span(rec, "estimate");
    const double t0 = rec.Now();
    const oocgemm::estimate::ProductEstimate est =
        oocgemm::estimate::EstimateProduct(a, b);
    pass.estimate_wall += rec.Now() - t0;
    pass.estimate_abs_nnz_error +=
        std::fabs(est.total_nnz - static_cast<double>(p.reference.nnz()));
  }
  {
    ScopedSpan span(rec, "partition");
    const double t0 = rec.Now();
    const auto plan = oocgemm::partition::PlanPanels(
        a, b, rig.device->capacity(), core::ExecutorOptions{}.plan);
    pass.plan_wall += rec.Now() - t0;
    CountOp(report, plan.ok(), Describe("PlanPanels", p, plan.status()));
    if (plan.ok()) {
      pass.row_panels += plan->num_row_panels;
      pass.col_panels += plan->num_col_panels;
    }
  }
  // CpuMulticore's kernel with CpuMulticore's options, then the serial
  // baseline.  Each product is freed outside the timed call.
  for (const bool serial : {false, true}) {
    const std::string op =
        serial ? "kernels.cpu_spgemm_serial" : "kernels.cpu_spgemm";
    Csr c;
    {
      ScopedSpan span(rec, op);
      const double t0 = rec.Now();
      c = serial ? oocgemm::kernels::CpuSpgemmSerial(a, b)
                 : oocgemm::kernels::CpuSpgemm(a, b, *rig.pool);
      (serial ? pass.serial_wall : pass.cpu_spgemm_wall) += rec.Now() - t0;
    }
    ScopedSpan span(rec, "verify");
    CountOp(report, Matches(c, p.reference),
            Describe(op, p, oocgemm::Status()));
  }
}

/// One closed-loop serve pass: `kClients` threads each submit the next job
/// of the pass and wait for its future before taking another.
void ServePass(Rig& rig, const Workload& w, std::uint64_t first_job_id,
               SpanRecorder& rec, PassResult& pass, RunReport& report) {
  struct Record {
    double submit_start = 0.0;
    double submit_end = 0.0;
    double resolved = 0.0;
    int span = -1;
    serve::JobResult result;
  };
  const std::size_t n = w.jobs.size();
  std::vector<Record> records(n);
  std::atomic<std::size_t> next{0};
  // Each client's span hangs under serve.pass although it runs on a thread
  // of its own, so serve.pass's self time is what no client covers.
  int serve_span = -1;
  auto client = [&] {
    ScopedSpan client_span(rec, "serve.client", 0, serve_span);
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      Record& r = records[i];
      const Product& p = w.products[static_cast<std::size_t>(w.jobs[i])];
      serve::SpgemmJob job;
      job.a = p.a;
      job.b = p.b;
      r.span = rec.Begin("serve.job", first_job_id + i);
      r.submit_start = rec.Now();
      std::future<serve::JobResult> future = rig.server->Submit(std::move(job));
      r.submit_end = rec.Now();
      r.result = future.get();
      r.resolved = rec.Now();
      rec.End(r.span);
    }
  };
  {
    ScopedSpan span(rec, "serve.pass");
    serve_span = span.id();
    const double t0 = rec.Now();
    std::vector<std::thread> threads;
    const int clients = std::min<int>(kClients, static_cast<int>(n));
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (std::thread& t : threads) t.join();
    pass.serve_wall = rec.Now() - t0;
  }

  ScopedSpan verify(rec, "verify");
  for (std::size_t i = 0; i < n; ++i) {
    Record& r = records[i];
    const Product& p = w.products[static_cast<std::size_t>(w.jobs[i])];
    const bool ok = r.result.ok() && Matches(r.result.c, p.reference);
    CountOp(report, ok, Describe("served job", p, r.result.status));
    if (!r.result.ok()) continue;
    const serve::JobMetrics& m = r.result.metrics;
    const std::uint64_t id = first_job_id + i;
    JobTiming t;
    t.latency = r.resolved - r.submit_start;
    t.submit = r.submit_end - r.submit_start;
    // A batch member's wall_seconds is its equal share of the batch's
    // executor wall, but every member waits for the whole batch to run:
    // its exec is the batch's wall.
    const double exec = m.wall_seconds * m.batch_size;
    if (m.batch_size > 1) ++pass.batched;
    if (exec < 0.0 || exec > t.latency + kReconcileSlack) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "job %llu: executor wall %.6f s (batch of %d) outside "
                    "its measured latency %.6f s",
                    static_cast<unsigned long long>(id), exec, m.batch_size,
                    t.latency);
      report.errors.push_back(buf);
    }
    // The executor can start before the descheduled client sees Submit
    // return; the overlap is taken off exec, so submit + queue wait + exec
    // always equals the latency.
    t.exec = std::min(exec, t.latency - t.submit);
    t.queue_wait = t.latency - t.submit - t.exec;
    pass.jobs.push_back(t);
    switch (m.executor) {
      case core::ExecutionMode::kCpuOnly: ++pass.via_cpu; break;
      case core::ExecutionMode::kHybrid: ++pass.via_hybrid; break;
      default: ++pass.via_gpu; break;
    }
    const double exec_start = r.submit_end + t.queue_wait;
    rec.Add("serve.submit", r.submit_start, r.submit_end, r.span, id);
    rec.Add("serve.queue_wait", r.submit_end, exec_start, r.span, id);
    rec.Add("serve.exec", exec_start, r.resolved, r.span, id);
  }
}

PassResult RunPass(Rig& rig, const Workload& w, bool traced, int index,
                   SpanRecorder& rec, RunReport& report) {
  rec.set_enabled(traced);
  PassResult pass;
  pass.traced = traced;
  {
    ScopedSpan pass_span(rec, "pass");
    for (const Product& p : w.products) {
      ScopedSpan product_span(rec, "product");
      if (traced) MeasureLayers(rig, p, rec, pass, report);
      double rows_before[kNumStrategies] = {};
      if (traced) {
        for (int s = 0; s < kNumStrategies; ++s) {
          rows_before[s] = KernelRows(kStrategies[s]);
        }
      }
      for (int e = 0; e < kNumExecutors; ++e) {
        const std::string op = std::string("core.") + kExecutorNames[e];
        vgpu::Device device(vgpu::ScaledV100Properties(kMemShift));
        const int span = rec.Begin(op);
        const double t0 = rec.Now();
        StatusOr<RunResult> run =
            RunExecutor(static_cast<Executor>(e), *rig.pool, device, p);
        pass.exec_wall[e] += rec.Now() - t0;
        rec.End(span);
        ScopedSpan verify(rec, "verify");
        CountOp(report, run.ok() && Matches(run->c, p.reference),
              Describe(op, p, run.status()));
        const RunStats stats = run.ok() ? run->stats : RunStats{};
        pass.stats[e].push_back(stats);
        pass.virtual_keys.push_back(op + " " + p.name + " " +
                                    VirtualKey(stats));
      }
      if (traced) {
        for (int s = 0; s < kNumStrategies; ++s) {
          pass.rows[s] += KernelRows(kStrategies[s]) - rows_before[s];
        }
        const double products = static_cast<double>(
            pass.stats[kCpu].back().flops / 2);
        pass.computed_bytes +=
            static_cast<double>(p.a->StorageBytes() +
                                p.reference.StorageBytes()) +
            products * static_cast<double>(sizeof(oocgemm::sparse::index_t) +
                                           sizeof(oocgemm::sparse::value_t));
      }
    }
    ServePass(rig, w,
              static_cast<std::uint64_t>(index) * w.jobs.size() + 1, rec,
              pass, report);
  }
  rec.set_enabled(false);
  return pass;
}

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// A timing with its tail: the most extreme whole percentile on the bad
/// side (high for times, low for rates) that still has at least ten
/// samples beyond it.
Metric Timing(const std::string& name, const std::vector<double>& v,
              const std::string& unit, double value,
              bool higher_better = false) {
  Metric m{name, value, unit, static_cast<std::int64_t>(v.size())};
  const auto n = static_cast<double>(v.size());
  for (int k = 1; k <= 50; ++k) {  // k: percent away from the bad extreme
    const int pct = higher_better ? k : 100 - k;
    const double rank = std::max(1.0, std::ceil(pct / 100.0 * n));
    if ((higher_better ? rank - 1.0 : n - rank) >= 10.0) {
      m.tail_pct = pct;
      m.tail = Percentile(v, pct / 100.0);
      break;
    }
  }
  return m;
}

Metric MedianTiming(const std::string& name, const std::vector<double>& v,
                    const std::string& unit = "s",
                    bool higher_better = false) {
  return Timing(name, v, unit, Median(v), higher_better);
}

Metric Value(const std::string& name, double value,
             const std::string& unit = "count") {
  return Metric{name, value, unit, 1};
}

std::vector<double> Collect(const std::vector<const PassResult*>& passes,
                            double (*get)(const PassResult&)) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(get(*p));
  return v;
}

std::vector<double> ExecWalls(const std::vector<const PassResult*>& passes,
                              int e) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(p->exec_wall[e]);
  return v;
}

std::vector<double> JobField(const std::vector<const PassResult*>& passes,
                             double JobTiming::*field) {
  std::vector<double> v;
  for (const PassResult* p : passes) {
    for (const JobTiming& t : p->jobs) v.push_back(t.*field);
  }
  return v;
}

std::vector<double> JobsPerSecond(
    const std::vector<const PassResult*>& passes) {
  std::vector<double> v;
  for (const PassResult* p : passes) {
    v.push_back(static_cast<double>(p->jobs.size()) / p->serve_wall);
  }
  return v;
}

double VirtualGflops(const PassResult& pass, int e) {
  double flops = 0.0;
  double seconds = 0.0;
  for (const RunStats& s : pass.stats[e]) {
    flops += static_cast<double>(s.flops);
    seconds += s.total_seconds;
  }
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

void EndToEndMetrics(const std::vector<const PassResult*>& passes,
                     const std::vector<double>& setup, RunReport& report) {
  auto& out = report.metrics;
  out.push_back(MedianTiming("setup_s", setup));
  out.push_back(Value("peak_rss_mb", PeakRssMb(), "MB"));
  for (int e = 0; e < kNumExecutors; ++e) {
    out.push_back(MedianTiming(std::string(kExecutorNames[e]) + "_wall_s",
                               ExecWalls(passes, e)));
  }
  for (int e = 0; e < kNumExecutors; ++e) {
    Metric m = Value(std::string(kExecutorNames[e]) + "_vgflops",
                     VirtualGflops(*passes.front(), e), "GFLOPS");
    m.samples = static_cast<std::int64_t>(passes.size());
    out.push_back(m);
  }
  out.push_back(
      MedianTiming("serve_jobs_per_s", JobsPerSecond(passes), "1/s", true));
  const std::vector<double> latency = JobField(passes, &JobTiming::latency);
  out.push_back(Timing("serve_latency_p50_s", latency, "s", Median(latency)));
  out.push_back(Timing("serve_latency_p95_s", latency, "s",
                       Percentile(latency, 0.95)));
}

/// Sums of per-product RunStats of one executor (virtual seconds and bytes
/// add up; fractions are weighted by each run's makespan).
RunStats SumStats(const std::vector<RunStats>& runs) {
  RunStats sum;
  sum.total_seconds = 0.0;
  for (const RunStats& s : runs) {
    sum.total_seconds += s.total_seconds;
    sum.kernel_seconds += s.kernel_seconds;
    sum.h2d_seconds += s.h2d_seconds;
    sum.d2h_seconds += s.d2h_seconds;
    sum.alloc_seconds += s.alloc_seconds;
    sum.transfer_fraction += s.transfer_fraction * s.total_seconds;
    sum.overlap_factor += s.overlap_factor * s.total_seconds;
    sum.bytes_h2d += s.bytes_h2d;
    sum.bytes_d2h += s.bytes_d2h;
    sum.device_peak_bytes = std::max(sum.device_peak_bytes,
                                     s.device_peak_bytes);
    sum.cpu_seconds += s.cpu_seconds;
    sum.gpu_seconds += s.gpu_seconds;
    sum.num_chunks += s.num_chunks;
    sum.num_gpu_chunks += s.num_gpu_chunks;
    sum.num_cpu_chunks += s.num_cpu_chunks;
    sum.flops += s.flops;
  }
  if (sum.total_seconds > 0.0) {
    sum.transfer_fraction /= sum.total_seconds;
    sum.overlap_factor /= sum.total_seconds;
  }
  return sum;
}

void LayerMetrics(const std::vector<const PassResult*>& traced,
                  const std::vector<const PassResult*>& untraced,
                  const std::vector<Span>& spans,
                  const serve::ServerReport& base,
                  const serve::ServerReport& end, const Workload& w,
                  RunReport& report) {
  auto& out = report.metrics;
  const PassResult& first = *traced.front();

  // estimate
  out.push_back(MedianTiming(
      "estimate.wall_s",
      Collect(traced, [](const PassResult& p) { return p.estimate_wall; })));
  double ref_nnz = 0.0;
  for (const Product& p : w.products) {
    ref_nnz += static_cast<double>(p.reference.nnz());
  }
  out.push_back(Value("estimate.nnz_rel_error",
                      first.estimate_abs_nnz_error / ref_nnz, "ratio"));

  // partition
  out.push_back(MedianTiming(
      "partition.plan_wall_s",
      Collect(traced, [](const PassResult& p) { return p.plan_wall; })));
  out.push_back(Value("partition.row_panels",
                      static_cast<double>(first.row_panels)));
  out.push_back(Value("partition.col_panels",
                      static_cast<double>(first.col_panels)));

  // kernels
  const std::vector<double> par =
      Collect(traced, [](const PassResult& p) { return p.cpu_spgemm_wall; });
  const std::vector<double> serial =
      Collect(traced, [](const PassResult& p) { return p.serial_wall; });
  out.push_back(MedianTiming("kernels.cpu_spgemm_wall_s", par));
  out.push_back(MedianTiming("kernels.cpu_spgemm_serial_wall_s", serial));
  const double flops = static_cast<double>(SumStats(first.stats[kCpu]).flops);
  out.push_back(Value("kernels.parallel_efficiency",
                      Median(serial) / (Median(par) * kPoolThreads),
                      "ratio"));
  out.push_back(
      Value("kernels.wall_gflops", flops / Median(par) / 1e9, "GFLOPS"));
  out.push_back(Value("kernels.flops_per_byte_computed",
                      flops / first.computed_bytes, "flop/B"));
  for (int s = 0; s < kNumStrategies; ++s) {
    out.push_back(Value(std::string("kernels.rows.") + kStrategies[s],
                        first.rows[s]));
  }

  // core
  for (int e : {kAsync, kHybrid}) {
    std::vector<double> overhead;
    for (const PassResult* p : traced) {
      overhead.push_back(p->exec_wall[e] - p->cpu_spgemm_wall);
    }
    out.push_back(MedianTiming(
        std::string("core.host_overhead_wall_s.") + kExecutorNames[e],
        overhead));
  }
  const RunStats async = SumStats(first.stats[kAsync]);
  const RunStats hybrid = SumStats(first.stats[kHybrid]);
  out.push_back(Value("core.chunks.async", async.num_chunks));
  out.push_back(Value("core.chunks.hybrid", hybrid.num_chunks));
  out.push_back(Value("core.gpu_chunks.hybrid", hybrid.num_gpu_chunks));
  out.push_back(Value("core.cpu_chunks.hybrid", hybrid.num_cpu_chunks));
  out.push_back(Value("core.gpu_busy_vs.hybrid", hybrid.gpu_seconds, "s"));
  out.push_back(Value("core.cpu_busy_vs.hybrid", hybrid.cpu_seconds, "s"));

  // vgpu
  for (int e : {kAsync, kHybrid}) {
    const RunStats& s = e == kAsync ? async : hybrid;
    const std::string sfx = std::string(".") + kExecutorNames[e];
    out.push_back(Value("vgpu.kernel_vs" + sfx, s.kernel_seconds, "s"));
    out.push_back(Value("vgpu.h2d_vs" + sfx, s.h2d_seconds, "s"));
    out.push_back(Value("vgpu.d2h_vs" + sfx, s.d2h_seconds, "s"));
    out.push_back(Value("vgpu.alloc_vs" + sfx, s.alloc_seconds, "s"));
    out.push_back(
        Value("vgpu.transfer_fraction" + sfx, s.transfer_fraction, "ratio"));
    out.push_back(
        Value("vgpu.overlap_factor" + sfx, s.overlap_factor, "ratio"));
    out.push_back(Value("vgpu.bytes_h2d" + sfx,
                        static_cast<double>(s.bytes_h2d), "B"));
    out.push_back(Value("vgpu.bytes_d2h" + sfx,
                        static_cast<double>(s.bytes_d2h), "B"));
    out.push_back(Value("vgpu.device_peak_bytes" + sfx,
                        static_cast<double>(s.device_peak_bytes), "B"));
  }

  // serve
  out.push_back(MedianTiming("serve.submit_wall_s",
                             JobField(traced, &JobTiming::submit)));
  out.push_back(MedianTiming("serve.queue_wait_wall_s",
                             JobField(traced, &JobTiming::queue_wait)));
  out.push_back(MedianTiming("serve.exec_wall_s",
                             JobField(traced, &JobTiming::exec)));
  double jobs = 0.0, via_cpu = 0.0, via_gpu = 0.0, via_hybrid = 0.0;
  for (const auto* group : {&traced, &untraced}) {
    for (const PassResult* p : *group) {
      jobs += static_cast<double>(p->jobs.size());
      via_cpu += static_cast<double>(p->via_cpu);
      via_gpu += static_cast<double>(p->via_gpu);
      via_hybrid += static_cast<double>(p->via_hybrid);
    }
  }
  jobs = std::max(jobs, 1.0);  // no completed job: every share reads 0
  out.push_back(Value("serve.via.cpu", via_cpu / jobs, "share"));
  out.push_back(Value("serve.via.gpu", via_gpu / jobs, "share"));
  out.push_back(Value("serve.via.hybrid", via_hybrid / jobs, "share"));
  const double batches = static_cast<double>(end.batches - base.batches);
  const double batched =
      static_cast<double>(end.batched_jobs - base.batched_jobs);
  out.push_back(Value("serve.batch_avg_size",
                      batches > 0.0 ? batched / batches : 1.0, "jobs"));
  const double hits =
      static_cast<double>(end.b_panel_hits - base.b_panel_hits);
  const double uploads =
      static_cast<double>(end.b_panel_uploads - base.b_panel_uploads);
  out.push_back(Value("serve.b_panel_hit_ratio",
                      hits + uploads > 0.0 ? hits / (hits + uploads) : 0.0,
                      "ratio"));
  out.push_back(Value("serve.retries",
                      static_cast<double>(end.retries - base.retries)));

  // Self time of every span name: median over its occurrences.
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  for (const char* name :
       {"pass", "product", "estimate", "partition", "kernels.cpu_spgemm",
        "kernels.cpu_spgemm_serial", "core.cpu", "core.async", "core.hybrid",
        "verify", "serve.pass", "serve.client", "serve.job", "serve.submit",
        "serve.queue_wait", "serve.exec"}) {
    out.push_back(MedianTiming(std::string(name) + ".self_s", by_name[name]));
  }

  // Tracing overhead: traced minus untraced passes of this run.
  std::vector<Metric> overhead;
  for (int e = 0; e < kNumExecutors; ++e) {
    overhead.push_back(Value(
        std::string("trace.overhead.") + kExecutorNames[e] + "_wall_s",
        Median(ExecWalls(traced, e)) - Median(ExecWalls(untraced, e)), "s"));
  }
  overhead.push_back(
      Value("trace.overhead.serve_latency_p50_s",
            Median(JobField(traced, &JobTiming::latency)) -
                Median(JobField(untraced, &JobTiming::latency)),
            "s"));
  overhead.push_back(Value("trace.overhead.serve_jobs_per_s",
                           Median(JobsPerSecond(traced)) -
                               Median(JobsPerSecond(untraced)),
                           "1/s"));
  for (Metric& m : overhead) {
    m.samples = static_cast<std::int64_t>(traced.size());
    out.push_back(m);
  }
  out.push_back(Value("trace.spans", static_cast<double>(spans.size())));
}

}  // namespace

RunReport RunBenchmark(const Workload& w, const RunConfig& config) {
  RunReport report;
  report.pool_threads = kPoolThreads;
  report.clients = std::min<int>(kClients, static_cast<int>(w.jobs.size()));
  SpanRecorder rec;
  if (config.trace) {
    const std::string err = SelfTestSpans();
    if (!err.empty()) report.errors.push_back("span self-test: " + err);
  }

  // Set-up, several times: only construction is timed; each set-up is
  // followed by one untimed warm-up operation.  The last rig is measured.
  std::vector<double> setup;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupReps; ++i) {
    rig.reset();
    const double t0 = rec.Now();
    rig = BuildRig();
    setup.push_back(rec.Now() - t0);
    for (int e = 0; e < kNumExecutors; ++e) {
      vgpu::Device device(vgpu::ScaledV100Properties(kMemShift));
      auto run =
          RunExecutor(static_cast<Executor>(e), *rig->pool, device, w.warmup);
      CountOp(report, run.ok() && Matches(run->c, w.warmup.reference),
            Describe(std::string("warm-up ") + kExecutorNames[e], w.warmup,
                     run.status()));
    }
    serve::SpgemmJob job;
    job.a = w.warmup.a;
    job.b = w.warmup.b;
    serve::JobResult served = rig->server->Submit(std::move(job)).get();
    CountOp(report, served.ok() && Matches(served.c, w.warmup.reference),
          Describe("warm-up served job", w.warmup, served.status));
  }
  const serve::ServerReport base = rig->server->Report();

  std::vector<PassResult> passes;
  const int min_passes = config.trace ? kMinTracedRunPasses : kMinPasses;
  // Past the minimum, a pass starts only if a pass of the mean length so
  // far still ends within --seconds: a run measures for about --seconds and
  // never overruns it by most of a long pass.
  const double start = rec.Now();
  while (static_cast<int>(passes.size()) < min_passes ||
         (rec.Now() - start) * (passes.size() + 1) / passes.size() <=
             config.seconds) {
    const int index = static_cast<int>(passes.size());
    const bool traced = config.trace && index % 2 == 1;
    passes.push_back(RunPass(*rig, w, traced, index, rec, report));
    const std::vector<std::string>& want = passes.front().virtual_keys;
    const std::vector<std::string>& got = passes.back().virtual_keys;
    for (std::size_t k = 0; k < want.size() && k < got.size(); ++k) {
      if (got[k] != want[k]) {
        report.errors.push_back("virtual clock drifted in pass " +
                                std::to_string(index) + ": " + got[k] +
                                " (first pass: " + want[k] + ")");
        break;
      }
    }
  }
  const serve::ServerReport end = rig->server->Report();
  rig.reset();
  report.passes = static_cast<int>(passes.size());
  report.serve_rejected = end.rejected - base.rejected;
  report.serve_timed_out = end.timed_out - base.timed_out;
  for (const PassResult& p : passes) {
    report.served_jobs += static_cast<std::int64_t>(p.jobs.size());
    report.batched_jobs += p.batched;
  }
  report.virtual_fingerprint = Fingerprint(passes.front().virtual_keys);
  for (int e = 0; e < kNumExecutors; ++e) {
    report.virtual_makespans.emplace_back(
        kExecutorNames[e], SumStats(passes.front().stats[e]).total_seconds);
  }

  std::vector<const PassResult*> traced, untraced;
  for (const PassResult& p : passes) (p.traced ? traced : untraced).push_back(&p);
  if (!config.trace) {
    EndToEndMetrics(untraced, setup, report);
    return report;
  }
  const std::vector<Span> spans = rec.spans();
  const std::string err = CheckSpans(spans);
  if (!err.empty()) report.errors.push_back("spans: " + err);
  LayerMetrics(traced, untraced, spans, base, end, w, report);
  if (!config.spans_out.empty() && !rec.WriteChromeTrace(config.spans_out)) {
    report.errors.push_back("cannot write spans to " + config.spans_out);
  }
  return report;
}

}  // namespace perfbench
