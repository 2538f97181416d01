#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Measurement plumbing shared by the workloads: the per-run record, the
// statistics the end-to-end metrics are computed with, host counters, and
// the final JSON line.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed-memory per-op record of a timed window: a log-bucket latency
/// histogram and a fine histogram of completion times on the window clock.
/// Its footprint does not depend on how many ops complete, so throughput
/// never leaks into rss_peak_mib. Record() is safe from any thread.
class OpRecorder {
 public:
  /// Completion times past `horizon_s` land in the last time bucket.
  explicit OpRecorder(double horizon_s);
  void Record(double latency_us, double done_s);
  uint64_t count() const;
  /// Latency quantile q in [0, 1], interpolated within its bucket.
  double LatencyQuantile(double q) const;
  /// Ops per second in [0, window_s], robust to short stalls: the ops are
  /// split, in completion order, into kRateChunks runs of equal count,
  /// each run's rate is its count over the time it spanned, and the median
  /// run rate is reported.
  double ChunkedRate(double window_s) const;

 private:
  static constexpr double kTimeBucketS = 1e-4;
  std::vector<std::atomic<uint32_t>> lat_buckets_;
  std::vector<std::atomic<uint32_t>> done_buckets_;
};
inline constexpr size_t kRateChunks = 20;

/// Median (mean of the middle two for an even count); 0 for no samples.
double Median(std::vector<double> v);

/// Host counters sampled around the timed window.
struct HostSample {
  uint64_t cpu_total = 0;  // all-CPU jiffies from /proc/stat
  uint64_t cpu_steal = 0;
  double process_cpu_s = 0;  // this process, user + system
};
HostSample SampleHost();
/// Share of all CPU time the hypervisor stole between two samples.
double StealShare(const HostSample& a, const HostSample& b);
double LoadAverage1();
/// VmHWM of this process in MiB.
double PeakRssMib();
/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds();

/// Seconds on the steady clock.
double NowSeconds();

/// A measured value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

inline void Put(MetricMap* out, const std::string& name, double value,
                const char* unit) {
  (*out)[name] = Metric{value, unit};
}

/// What one benchmark run reports.
struct RunRecord {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;

  /// Counts one checked op; a failed check makes the whole run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts `ops` checked ops, `failed` of which failed their check.
  void AddOps(uint64_t ops, uint64_t failed, const std::string& what);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunRecord& record);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
