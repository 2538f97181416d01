#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Latency buckets: geometric, 0.5 % wide, from 10 ns up to ~10^6 s.
constexpr double kLatMinUs = 0.01;
constexpr double kLatRatio = 1.005;
constexpr size_t kLatBuckets = 6000;

double LatBucketLow(size_t b) {
  return kLatMinUs * std::pow(kLatRatio, static_cast<double>(b));
}

}  // namespace

OpRecorder::OpRecorder(double horizon_s)
    : lat_buckets_(kLatBuckets),
      done_buckets_(static_cast<size_t>(horizon_s / kTimeBucketS) + 1) {}

void OpRecorder::Record(double latency_us, double done_s) {
  const double l = std::log(std::max(latency_us, kLatMinUs) / kLatMinUs) /
                   std::log(kLatRatio);
  const size_t lb = std::min(static_cast<size_t>(l), kLatBuckets - 1);
  const size_t tb = std::min(
      static_cast<size_t>(std::max(done_s, 0.0) / kTimeBucketS),
      done_buckets_.size() - 1);
  lat_buckets_[lb].fetch_add(1, std::memory_order_relaxed);
  done_buckets_[tb].fetch_add(1, std::memory_order_relaxed);
}

uint64_t OpRecorder::count() const {
  uint64_t n = 0;
  for (const auto& b : lat_buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double OpRecorder::LatencyQuantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  const double rank = q * static_cast<double>(n);
  uint64_t below = 0;
  for (size_t b = 0; b < kLatBuckets; ++b) {
    const uint64_t c = lat_buckets_[b].load(std::memory_order_relaxed);
    if (c != 0 && static_cast<double>(below + c) >= rank) {
      const double frac = (rank - static_cast<double>(below)) /
                          static_cast<double>(c);
      return LatBucketLow(b) * std::pow(kLatRatio, frac);
    }
    below += c;
  }
  return LatBucketLow(kLatBuckets);
}

double OpRecorder::ChunkedRate(double window_s) const {
  const size_t last = std::min(static_cast<size_t>(window_s / kTimeBucketS),
                               done_buckets_.size() - 1);
  uint64_t total = 0;
  for (size_t b = 0; b <= last; ++b) {
    total += done_buckets_[b].load(std::memory_order_relaxed);
  }
  if (total < 2 * kRateChunks) {
    return window_s > 0 ? static_cast<double>(total) / window_s : 0;
  }
  // Time at which the cumulative count reaches each chunk boundary,
  // interpolated within the 0.1 ms bucket that crosses it.
  const uint64_t per = total / kRateChunks;
  std::vector<double> rates;
  double start = 0;  // the window opens at 0 on the window clock
  uint64_t below = 0;
  size_t b = 0;
  for (size_t c = 1; c <= kRateChunks; ++c) {
    const uint64_t target = c * per;
    uint64_t in = done_buckets_[b].load(std::memory_order_relaxed);
    while (below + in < target) {
      below += in;
      in = done_buckets_[++b].load(std::memory_order_relaxed);
    }
    const double end = (static_cast<double>(b) +
                        static_cast<double>(target - below) /
                            static_cast<double>(in)) *
                       kTimeBucketS;
    if (end > start) rates.push_back(static_cast<double>(per) / (end - start));
    start = end;
  }
  return Median(std::move(rates));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2;
}

HostSample SampleHost() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t v = 0;
    stat >> v;
    s.cpu_total += v;
    if (field == 7) s.cpu_steal = v;
  }
  s.process_cpu_s = ProcessCpuSeconds();
  return s;
}

double StealShare(const HostSample& a, const HostSample& b) {
  const uint64_t total = b.cpu_total - a.cpu_total;
  return total == 0 ? 0
                    : static_cast<double>(b.cpu_steal - a.cpu_steal) /
                          static_cast<double>(total);
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunRecord::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  correct = false;
}

void RunRecord::AddOps(uint64_t ops, uint64_t failed_ops,
                       const std::string& what) {
  attempted += ops;
  if (failed_ops == 0) return;
  failed += failed_ops;
  if (correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu %s failed their check\n",
                 static_cast<unsigned long long>(failed_ops),
                 static_cast<unsigned long long>(ops), what.c_str());
  }
  correct = false;
}

std::string ResultJson(const RunRecord& record) {
  std::string out = "{\"correct\": ";
  out += record.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(record.attempted);
  out += ", \"failed\": " + std::to_string(record.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const auto& [name, m] : record.metrics) {
    // %.17g keeps every digit the measurement has.
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
