#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// The benchmark's workloads, the closed loops they drive, and the layer
// probes of traced runs. Everything here calls the library only through
// its public modules: core (builders, frozen index, index_io), serve, net
// and live.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/frozen_index.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "report.h"
#include "serve/query_service.h"
#include "streams.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch directory inside the checkout
};

// ---- Fixed configuration (the same on every commit) -----------------------

inline constexpr unsigned kBuildThreads = 2;
// wire-point keeps one service worker: with the client thread and the net
// loop that makes three busy threads on four vCPUs, and its op_rate
// repeats within ~3.5 % (IQR over seeds) instead of 6-9 % with two.
inline constexpr unsigned kWireWorkers = 1;
inline constexpr unsigned kDeepWorkers = 2;
inline constexpr size_t kCacheBytes = 4u << 20;
inline constexpr unsigned kWireConns = 4;
inline constexpr unsigned kWireDepth = 32;
inline constexpr size_t kDeepWindow = 64;
inline constexpr size_t kLiveBatch = 16;
inline constexpr size_t kLiveReadsPerBatch = 4;
inline constexpr uint64_t kLiveCheckpointEvery = 4096;  // updates
inline constexpr size_t kChurnLag = 512;
inline constexpr int kSetupReps = 5;

// Stream ids for StreamSeed(): one independent random sequence per use.
enum StreamId : uint64_t {
  kWireStream = 1,
  kDeepStream,
  kChurnStreamId,
  kReadStream,
  kCheckStream,
  kProbeStream,
};

// ---- Shared stacks ----------------------------------------------------------

/// A query service over one immutable image with `workers` workers and a
/// kCacheBytes result cache.
std::unique_ptr<esd::serve::EsdQueryService> MakeService(
    const esd::core::FrozenEsdIndex& image, unsigned workers);

/// Service (kWireWorkers) + in-process NetServer on an ephemeral loopback
/// port. The server
/// is declared last, so it drains and stops before the service goes away.
struct WireStack {
  explicit WireStack(const esd::core::FrozenEsdIndex& image);
  esd::obs::MetricRegistry net_registry;
  std::unique_ptr<esd::serve::EsdQueryService> service;
  std::unique_ptr<esd::net::NetServer> server;
};

/// A live index opened in the empty directory `dir` with the library defaults,
/// and a one-worker read service with the cache on its epoch provider.
/// The read service is declared last and unhooked from the epoch listener
/// in the destructor, before either goes away.
struct LiveStack {
  LiveStack(const esd::graph::Graph& g, const std::string& dir);
  ~LiveStack();
  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;
  esd::obs::MetricRegistry live_registry;
  std::unique_ptr<esd::live::LiveEsdIndex> live;
  std::unique_ptr<esd::serve::EsdQueryService> reads;
};

/// Expected answer size of a padded top-k query on an image with `live`
/// registered edges.
inline size_t ExpectedSize(uint32_t k, uint64_t live) {
  return static_cast<size_t>(std::min<uint64_t>(k, live));
}

// ---- Closed loops -------------------------------------------------------

/// Outcome of a loop: `ops` completed and were recorded. `failed` counts
/// completed ops that failed their check plus the `lost` ones that never
/// completed (a dropped connection, an unexpected reply).
struct LoopResult {
  size_t ops = 0;
  uint64_t failed = 0;
  uint64_t lost = 0;
  double window_s = 0;  // length of the timed window on the window clock
  uint64_t attempted() const { return ops + lost; }
};

/// One client thread keeps `depth` binary-wire queries in flight on each of
/// `conns` connections (a sliding window: a reply frees its slot for the
/// next query) for `seconds`, then drains. Each reply is checked for cid
/// order, status and size. `send_us` gets the duration of every send().
LoopResult WireLoop(uint16_t port, PointMix* mix, unsigned conns,
                    unsigned depth, double seconds, uint64_t live_edges,
                    OpRecorder* ops, std::vector<double>* send_us);

/// One generator keeps `window` requests in flight through SubmitAsync for
/// `seconds`, then drains. Each reply is checked for status and size.
LoopResult ServiceLoop(esd::serve::EsdQueryService* service,
                       const std::function<Request()>& next, size_t window,
                       double seconds, uint64_t live_edges,
                       OpRecorder* ops);

/// Per-batch record of the live loop.
struct LiveLoopResult : LoopResult {
  uint64_t updates = 0;
  std::vector<double> read_us;
  std::vector<double> snapshot_lag;  // sampled per batch in traced runs
  esd::live::LiveStats before;
};

/// live-write's loop: durable ApplyBatchTyped batches of kLiveBatch churn
/// updates, a checkpoint every kLiveCheckpointEvery updates, and after
/// every batch kLiveReadsPerBatch reads through the read service. Stops
/// after `seconds` or `max_batches`, whichever comes first.
LiveLoopResult LiveLoop(LiveStack* stack, ChurnStream* churn, PointMix* reads,
                        double seconds, size_t max_batches, bool sample_lag,
                        OpRecorder* ops);

// ---- Layer metrics and probes (traced runs) -----------------------------

/// serve.*: from a service's own counters and stage histograms.
void ServeLayer(const esd::serve::EsdQueryService& service, uint64_t updates,
                MetricMap* out);
/// engine.entries_scanned_per_op / slab_searches_per_op from a counter
/// delta over `ops` served queries.
void EngineCounterLayer(const esd::core::EngineCounters& before,
                        const esd::core::EngineCounters& after, size_t ops,
                        MetricMap* out);
/// net.* traffic metrics from a server-stats delta over `ops` queries.
void NetTrafficLayer(const esd::net::NetServer::Stats& before,
                     const esd::net::NetServer::Stats& after, size_t ops,
                     const std::vector<double>& send_us, MetricMap* out);
/// live.* from a finished live loop, plus timed RefreezeNow and
/// Checkpoint calls.
void LiveLayer(LiveStack* stack, const LiveLoopResult& loop,
               const OpRecorder& ops, MetricMap* out, RunRecord* record);

/// build.*: three timed BuildFrozenIndexParallel calls (phase gauges, CPU
/// utilisation), one serial CliqueComponentSizes and one FromEdgeSizes.
void ProbeBuild(const esd::graph::Graph& g, MetricMap* out);
/// io.*: save and load of `image` in `dir`, three times each.
void ProbeIo(const esd::core::FrozenEsdIndex& image, const std::string& dir,
             MetricMap* out, RunRecord* record);
/// engine.scan_us_p50 / pad_us_p50: direct single-thread FindSlab +
/// QueryAtSlab + PadQueryResult calls on `requests`. With `counters` it
/// also fills the per-op engine counters from these calls.
void ProbeEngine(const esd::core::FrozenEsdIndex& image,
                 const std::vector<Request>& requests, bool counters,
                 MetricMap* out, RunRecord* record);
/// net.rtt_p50_us: one connection, one query in flight, point mix.
/// `send_us` (optional) gets the duration of every send().
void ProbeRtt(uint16_t port, uint64_t seed, uint64_t live_edges,
              MetricMap* out, RunRecord* record,
              std::vector<double>* send_us = nullptr);
/// net.* on a throwaway WireStack for workloads that bypass the net layer.
void ProbeNet(const esd::core::FrozenEsdIndex& image, uint64_t seed,
              MetricMap* out, RunRecord* record);
/// serve.* on a throwaway service driven by the deep-scan loop.
void ProbeServe(const esd::core::FrozenEsdIndex& image, uint64_t seed,
                MetricMap* out, RunRecord* record);
/// live.* from a short live loop on `g`, for workloads without a write
/// path.
void ProbeLive(const esd::graph::Graph& g, uint64_t seed,
               const std::string& dir, MetricMap* out, RunRecord* record);
/// live.wal_append_us / wal_sync_us: a standalone WalWriter fed a copy of
/// the churn stream, one Sync per batch.
void ProbeWal(const esd::graph::Graph& g, uint64_t seed,
              const std::string& dir, MetricMap* out, RunRecord* record);

// ---- Workloads ----------------------------------------------------------

/// Runs one workload: set-up kSetupReps times, the timed window (measured
/// again after a steal episode), the correctness checks, and in traced runs
/// the layer metrics. Fills the
/// end-to-end metrics except ok_share (main adds it once every check ran).
void RunWirePoint(const Options& opts, RunRecord* record);
void RunDeepScan(const Options& opts, RunRecord* record);
void RunLiveWrite(const Options& opts, RunRecord* record);
void RunIndexBuild(const Options& opts, RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
