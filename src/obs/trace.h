#ifndef ESD_OBS_TRACE_H_
#define ESD_OBS_TRACE_H_

/// RAII trace spans with per-thread lock-free ring buffers and Chrome
/// trace_event JSON export (loadable in chrome://tracing or Perfetto).
///
/// Compile-time gate: ESD_OBS_TRACING (default 1; the build sets it to 0
/// under -DESD_OBS=OFF). When off, TraceSpan and Tracer collapse to empty
/// inline stubs and ESD_TRACE_SPAN expands to nothing, so instrumented
/// code compiles unchanged with zero runtime cost. PhaseSeries keeps its
/// metric-registry side (per-phase elapsed-seconds gauges) in both modes —
/// only the span recording is compiled out.
///
/// Runtime gate: Tracer::Global().SetEnabled(false) skips the clock reads
/// too (one relaxed load per span). Tracing is enabled by default when
/// compiled in; the ring buffers only cost memory once a thread records
/// (naming a thread does not create one).

#ifndef ESD_OBS_TRACING
#define ESD_OBS_TRACING 1
#endif

#include <chrono>
#include <cstdint>
#include <string>

#if ESD_OBS_TRACING
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>
#endif

namespace esd::obs {

class MetricRegistry;

inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if ESD_OBS_TRACING

/// Collects completed spans from any number of threads. Each thread owns a
/// fixed-size ring buffer (oldest events overwritten past kRingCapacity);
/// recording is wait-free — three relaxed stores plus one release store of
/// the ring head, no locks, no allocation. Export walks all rings under a
/// mutex and is safe to run concurrently with recording: every event field
/// is individually atomic, so a racing read sees a possibly-torn but
/// well-defined event, never UB (TSan-clean by construction).
///
/// Span names must have static storage duration (string literals): the
/// ring stores the pointer, not a copy.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 8192;

  /// The process-wide tracer every ESD_TRACE_SPAN records into.
  static Tracer& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one completed span on the calling thread's ring. A nonzero
  /// `id` is exported as args.rid — the join key that groups one request's
  /// spans across threads and batches (see obs/request_context.h).
  void RecordComplete(const char* name, uint64_t start_ns, uint64_t dur_ns,
                      uint64_t id = 0);

  /// Names the calling thread's track in the exported trace (defaults to
  /// "thread-<tid>" in registration order; the first registering thread
  /// is tid 0). Naming allocates nothing: the name is kept per thread and
  /// copied into the thread's ring when its first event creates it, so a
  /// named thread that never records never registers a track.
  void SetCurrentThreadName(std::string name);

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one ph:"M"
  /// thread_name metadata event per thread and ph:"X" complete events.
  /// ts/dur are microseconds on the steady clock.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`; false (with *error filled when
  /// given) on IO failure.
  bool WriteChromeTrace(const std::string& path, std::string* error = nullptr);

  /// Total spans recorded since start or Clear(), across all threads
  /// (monotonic; counts events already overwritten in a full ring).
  uint64_t NumEventsRecorded() const;

  /// Drops all recorded events (thread registrations and names survive).
  /// Test isolation only — concurrent recorders may interleave.
  void Clear();

 private:
  struct Event {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> id{0};  // 0 = no request association
  };

  struct ThreadBuffer {
    uint32_t tid = 0;
    std::string thread_name;  // guarded by Tracer::mu_
    std::array<Event, kRingCapacity> events;
    std::atomic<uint64_t> head{0};
  };

  /// The calling thread's ring, created and registered on first use.
  ThreadBuffer& CurrentBuffer();

  /// Per-thread state: the ring (null until the thread first records) and
  /// the name set before it existed. The ring pointer is trivially
  /// destructible so recording stays valid during thread teardown.
  static thread_local ThreadBuffer* tls_ring_;
  static thread_local std::string tls_name_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::atomic<bool> enabled_{true};
};

/// RAII span: times its own scope and records into the calling thread's
/// ring on destruction. `name` must be a string literal (or otherwise
/// outlive the tracer). Prefer the ESD_TRACE_SPAN macro, which vanishes
/// under ESD_OBS=OFF.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(Tracer::Global().enabled() ? name : nullptr),
        start_ns_(name_ ? MonotonicNanos() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Global().RecordComplete(name_, start_ns_,
                                      MonotonicNanos() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
};

#define ESD_OBS_CONCAT_INNER(a, b) a##b
#define ESD_OBS_CONCAT(a, b) ESD_OBS_CONCAT_INNER(a, b)
#define ESD_TRACE_SPAN(name) \
  ::esd::obs::TraceSpan ESD_OBS_CONCAT(esd_trace_span_, __LINE__)(name)

#else  // !ESD_OBS_TRACING

/// Compiled-out stub: same API, every member an inline no-op, export
/// reports that tracing is unavailable.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 0;

  static Tracer& Global() {
    static Tracer t;
    return t;
  }

  void SetEnabled(bool) {}
  bool enabled() const { return false; }
  void RecordComplete(const char*, uint64_t, uint64_t, uint64_t = 0) {}
  void SetCurrentThreadName(std::string) {}
  std::string ChromeTraceJson() const { return "{\"traceEvents\":[]}"; }
  bool WriteChromeTrace(const std::string&, std::string* error = nullptr) {
    if (error != nullptr) *error = "tracing compiled out (ESD_OBS=OFF)";
    return false;
  }
  uint64_t NumEventsRecorded() const { return 0; }
  void Clear() {}
};

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#define ESD_TRACE_SPAN(name) \
  do {                       \
  } while (false)

#endif  // ESD_OBS_TRACING

/// Times a sequence of mutually exclusive phases (an index build, a load
/// run): Begin("build.orientation") ... Begin("build.clique_enum") ...
/// implicitly ends the previous phase; destruction ends the last one.
///
/// Each finished phase (a) adds its elapsed seconds to the registry gauge
/// `esd_phase_<sanitized name>_seconds` — present in both ESD_OBS modes,
/// this is what fig6's per-phase JSON breakdown reads — and (b) records a
/// trace span under the phase name when tracing is compiled in and the
/// tracer is enabled.
class PhaseSeries {
 public:
  /// Phases accumulate into `registry` (the process-wide registry by
  /// default, so concurrent builds sum — benches diff before/after).
  explicit PhaseSeries(MetricRegistry* registry = nullptr);
  ~PhaseSeries();
  PhaseSeries(const PhaseSeries&) = delete;
  PhaseSeries& operator=(const PhaseSeries&) = delete;

  /// Ends the current phase (if any) and starts one named `phase`, which
  /// must be a string literal (it may be retained for span export).
  void Begin(const char* phase);

  /// Ends the current phase without starting another.
  void End();

 private:
  MetricRegistry* registry_;
  const char* current_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace esd::obs

#endif  // ESD_OBS_TRACE_H_
