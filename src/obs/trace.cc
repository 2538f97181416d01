#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace esd::obs {

#if ESD_OBS_TRACING

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendMicros(std::string* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out->append(buf);
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // record during static teardown
}

thread_local Tracer::ThreadBuffer* Tracer::tls_ring_ = nullptr;
thread_local std::string Tracer::tls_name_;

Tracer::ThreadBuffer& Tracer::CurrentBuffer() {
  // The shared_ptr in buffers_ keeps the ring alive past thread exit, so
  // a trace exported after joins still holds worker spans.
  if (tls_ring_ == nullptr) {
    auto buf = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<uint32_t>(buffers_.size());
    buf->thread_name = tls_name_;
    buffers_.push_back(buf);
    tls_ring_ = buf.get();
  }
  return *tls_ring_;
}

void Tracer::RecordComplete(const char* name, uint64_t start_ns,
                            uint64_t dur_ns, uint64_t id) {
  ThreadBuffer& buf = CurrentBuffer();
  const uint64_t h = buf.head.load(std::memory_order_relaxed);
  Event& e = buf.events[h % kRingCapacity];
  e.start_ns.store(start_ns, std::memory_order_relaxed);
  e.dur_ns.store(dur_ns, std::memory_order_relaxed);
  e.id.store(id, std::memory_order_relaxed);
  e.name.store(name, std::memory_order_relaxed);
  buf.head.store(h + 1, std::memory_order_release);
}

void Tracer::SetCurrentThreadName(std::string name) {
  if (tls_ring_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    tls_ring_->thread_name = name;
  }
  tls_name_ = std::move(name);
}

std::string Tracer::ChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::string tname = buf->thread_name.empty()
                            ? "thread-" + std::to_string(buf->tid)
                            : buf->thread_name;
    if (!first) out.push_back(',');
    first = false;
    out.append(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(buf->tid) +
        ",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    AppendJsonEscaped(&out, tname);
    out.append("\"}}");
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, kRingCapacity);
    for (uint64_t i = head - n; i < head; ++i) {
      const Event& e = buf->events[i % kRingCapacity];
      const char* name = e.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // slot being written right now
      out.append(",{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                 std::to_string(buf->tid) + ",\"name\":\"");
      AppendJsonEscaped(&out, name);
      out.append("\",\"ts\":");
      AppendMicros(&out, e.start_ns.load(std::memory_order_relaxed));
      out.append(",\"dur\":");
      AppendMicros(&out, e.dur_ns.load(std::memory_order_relaxed));
      const uint64_t id = e.id.load(std::memory_order_relaxed);
      if (id != 0) {
        // The request id is the trace id: filtering on rid in Perfetto
        // reassembles one request's timeline across workers and batches.
        out.append(",\"args\":{\"rid\":" + std::to_string(id) + "}");
      }
      out.append("}");
    }
  }
  out.append("]}");
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, std::string* error) {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

uint64_t Tracer::NumEventsRecorded() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    total += buf->head.load(std::memory_order_acquire);
  }
  return total;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    for (auto& e : buf->events) {
      e.name.store(nullptr, std::memory_order_relaxed);
    }
    buf->head.store(0, std::memory_order_release);
  }
}

#endif  // ESD_OBS_TRACING

PhaseSeries::PhaseSeries(MetricRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricRegistry::Global()) {}

PhaseSeries::~PhaseSeries() { End(); }

void PhaseSeries::Begin(const char* phase) {
  End();
  current_ = phase;
  start_ns_ = MonotonicNanos();
}

void PhaseSeries::End() {
  if (current_ == nullptr) return;
  const uint64_t dur_ns = MonotonicNanos() - start_ns_;
  // The span obeys the tracer's runtime gate like TraceSpan does (a
  // disarmed tracer creates no ring); the gauge is always updated.
  if (Tracer::Global().enabled()) {
    Tracer::Global().RecordComplete(current_, start_ns_, dur_ns);
  }
  registry_
      ->GetGauge("esd_phase_" + MetricRegistry::SanitizeName(current_) +
                     "_seconds",
                 "Cumulative seconds spent in this pipeline phase")
      .Add(static_cast<double>(dur_ns) * 1e-9);
  current_ = nullptr;
}

}  // namespace esd::obs
