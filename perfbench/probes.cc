// Per-layer metrics of traced runs. A layer the workload's own window
// loads is measured from that window (ServeLayer, EngineCounterLayer,
// NetTrafficLayer, LiveLayer); the others are measured by a short probe
// after the window, on the workload's own graph and image, so that every
// traced run reports every layer.

#include <filesystem>

#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/parallel_builder.h"
#include "live/wal.h"
#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

using esd::core::FrozenEsdIndex;

namespace {

constexpr double kProbeSeconds = 0.3;
constexpr size_t kProbeLiveBatches = 64;
constexpr int kProbeReps = 3;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double PhaseSeconds(const char* phase) {
  return esd::obs::MetricRegistry::Global()
      .GetGauge(std::string("esd_phase_build_") + phase + "_seconds")
      .Value();
}

// Median wall milliseconds of kProbeReps calls of `fn`; `ok` collects the
// calls' results.
template <typename Fn>
double MedianMs(Fn fn, bool* ok) {
  std::vector<double> ms;
  for (int i = 0; i < kProbeReps; ++i) {
    const double a = NowSeconds();
    *ok &= fn();
    ms.push_back((NowSeconds() - a) * 1e3);
  }
  return Median(std::move(ms));
}

}  // namespace

void ServeLayer(const esd::serve::EsdQueryService& service, uint64_t updates,
                MetricMap* out) {
  const esd::serve::MetricsSnapshot s = service.metrics().Snap();
  Put(out, "serve.queue_wait_p50_us", s.queue_wait.p50_us, "us");
  Put(out, "serve.exec_p50_us", s.execute.p50_us, "us");
  Put(out, "serve.batch_size_mean",
      Ratio(static_cast<double>(s.accepted), static_cast<double>(s.batches)),
      "count");
  Put(out, "serve.slab_searches_saved_per_op",
      Ratio(static_cast<double>(s.slab_searches_saved),
            static_cast<double>(s.completed)),
      "count");
  Put(out, "serve.rejected_share",
      Ratio(static_cast<double>(s.rejected),
            static_cast<double>(s.accepted + s.rejected)),
      "ratio");
  // Shares of execution time: the stages that partition exec_us (queue
  // wait and batch formation measure the closed loop's depth instead).
  auto stage_us = [&](esd::obs::Stage stage) {
    return s.stages[static_cast<size_t>(stage)].sum_us;
  };
  const double exec_total = stage_us(esd::obs::Stage::kCacheLookup) +
                            stage_us(esd::obs::Stage::kSlabScan) +
                            stage_us(esd::obs::Stage::kPaddingScan) +
                            stage_us(esd::obs::Stage::kMerge);
  auto stage_share = [&](esd::obs::Stage stage) {
    return Ratio(stage_us(stage), exec_total);
  };
  Put(out, "serve.stage.slab_scan_share",
      stage_share(esd::obs::Stage::kSlabScan), "ratio");
  Put(out, "serve.stage.padding_scan_share",
      stage_share(esd::obs::Stage::kPaddingScan), "ratio");
  esd::serve::ResultCache::Stats cache;
  if (service.cache() != nullptr) cache = service.cache()->Snap();
  Put(out, "serve.cache_hit_share",
      Ratio(static_cast<double>(cache.hits),
            static_cast<double>(cache.hits + cache.misses)),
      "ratio");
  Put(out, "serve.cache_evictions_per_op",
      Ratio(static_cast<double>(cache.evictions),
            static_cast<double>(s.completed)),
      "count");
  // Generations beyond the first, per thousand updates: every publish the
  // reads observe rotates one.
  Put(out, "serve.cache_generations_per_kupd",
      cache.generations == 0
          ? 0
          : Ratio(static_cast<double>(cache.generations - 1),
                  static_cast<double>(updates) / 1e3),
      "count");
}

void EngineCounterLayer(const esd::core::EngineCounters& before,
                        const esd::core::EngineCounters& after, size_t ops,
                        MetricMap* out) {
  const double n = static_cast<double>(ops);
  Put(out, "engine.entries_scanned_per_op",
      Ratio(static_cast<double>(after.entries_scanned - before.entries_scanned),
            n),
      "count");
  Put(out, "engine.slab_searches_per_op",
      Ratio(static_cast<double>(after.slab_searches - before.slab_searches), n),
      "count");
}

void NetTrafficLayer(const esd::net::NetServer::Stats& before,
                     const esd::net::NetServer::Stats& after, size_t ops,
                     const std::vector<double>& send_us, MetricMap* out) {
  const double n = static_cast<double>(ops);
  Put(out, "net.bytes_in_per_op",
      Ratio(static_cast<double>(after.bytes_read - before.bytes_read), n),
      "bytes");
  Put(out, "net.bytes_out_per_op",
      Ratio(static_cast<double>(after.bytes_written - before.bytes_written), n),
      "bytes");
  Put(out, "net.client_send_us_p50", Median(send_us), "us");
  Put(out, "net.parse_errors",
      static_cast<double>(after.parse_errors - before.parse_errors), "count");
  Put(out, "net.backpressure_closes",
      static_cast<double>(after.backpressure_closes -
                          before.backpressure_closes),
      "count");
}

void LiveLayer(LiveStack* stack, const LiveLoopResult& loop,
               const OpRecorder& ops, MetricMap* out, RunRecord* record) {
  esd::live::LiveEsdIndex& live = *stack->live;
  const esd::live::LiveStats after = live.Stats();
  const double kupd = static_cast<double>(loop.updates) / 1e3;
  Put(out, "live.batch_p99_us", ops.LatencyQuantile(0.99), "us");
  Put(out, "live.refreezes_per_kupd",
      Ratio(static_cast<double>(after.refreezes - loop.before.refreezes), kupd),
      "count");
  Put(out, "live.publish_races",
      static_cast<double>(after.publish_races - loop.before.publish_races),
      "count");
  double lag_sum = 0;
  for (double lag : loop.snapshot_lag) lag_sum += lag;
  Put(out, "live.snapshot_lag_mean",
      Ratio(lag_sum, static_cast<double>(loop.snapshot_lag.size())), "count");
  Put(out, "live.read_p50_us", Median(loop.read_us), "us");
  bool ok = true;
  Put(out, "live.refreeze_ms", MedianMs([&] {
        ESD_TRACE_SPAN("bench.live.refreeze");
        return live.RefreezeNow();
      }, &ok),
      "ms");
  Put(out, "live.checkpoint_ms", MedianMs([&] {
        ESD_TRACE_SPAN("bench.live.checkpoint");
        std::string error;
        return live.Checkpoint(&error);
      }, &ok),
      "ms");
  record->Check(ok, "timed refreezes and checkpoints succeed");
  Put(out, "live.image_mib",
      static_cast<double>(live.CurrentSnapshot()->index.MemoryBytes()) /
          (1 << 20),
      "MiB");
}

void ProbeBuild(const esd::graph::Graph& g, MetricMap* out) {
  ESD_TRACE_SPAN("bench.probe.build");
  // The parallel builder's phases; its H(c) build is the slab sort of the
  // frozen output path.
  static constexpr const char* kPhases[][2] = {
      {"dsu_init", "dsu_init"},           {"orientation", "orientation"},
      {"clique_enum", "clique_enum"},     {"extract_sizes", "extract_sizes"},
      {"hlist_build", "slab_sort"},
  };
  double before[std::size(kPhases)];
  for (size_t i = 0; i < std::size(kPhases); ++i) {
    before[i] = PhaseSeconds(kPhases[i][1]);
  }
  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = NowSeconds();
  FrozenEsdIndex image;
  for (int i = 0; i < kProbeReps; ++i) {
    image = esd::core::BuildFrozenIndexParallel(g, kBuildThreads);
  }
  const double wall = NowSeconds() - wall0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  for (size_t i = 0; i < std::size(kPhases); ++i) {
    Put(out, std::string("build.phase.") + kPhases[i][0] + "_ms",
        (PhaseSeconds(kPhases[i][1]) - before[i]) * 1e3 / kProbeReps, "ms");
  }
  Put(out, "build.cpu_util", Ratio(cpu, wall * kBuildThreads), "ratio");
  Put(out, "build.entries", static_cast<double>(image.NumEntries()), "count");
  Put(out, "build.image_bytes", static_cast<double>(image.MemoryBytes()),
      "bytes");

  double a = NowSeconds();
  std::vector<std::vector<uint32_t>> sizes = esd::core::CliqueComponentSizes(g);
  Put(out, "build.serial_sizes_ms", (NowSeconds() - a) * 1e3, "ms");
  std::vector<esd::graph::Edge> edges = g.Edges();
  a = NowSeconds();
  image = FrozenEsdIndex::FromEdgeSizes(std::move(edges), std::move(sizes));
  Put(out, "build.slab_ms", (NowSeconds() - a) * 1e3, "ms");
}

void ProbeIo(const FrozenEsdIndex& image, const std::string& dir,
             MetricMap* out, RunRecord* record) {
  ESD_TRACE_SPAN("bench.probe.io");
  ResetDir(dir);
  const std::string path = dir + "/image.esdx";
  bool ok = true;
  Put(out, "io.save_ms", MedianMs([&] {
        std::string error;
        return esd::core::SaveFrozenIndex(image, path, &error);
      }, &ok),
      "ms");
  Put(out, "io.load_ms", MedianMs([&] {
        FrozenEsdIndex loaded;
        std::string error;
        return esd::core::LoadFrozenIndex(path, &loaded, &error) &&
               loaded == image;
      }, &ok),
      "ms");
  record->Check(ok, "image save/load round trip");
  Put(out, "io.file_bytes",
      ok ? static_cast<double>(std::filesystem::file_size(path)) : 0, "bytes");
}

void ProbeEngine(const FrozenEsdIndex& image,
                 const std::vector<Request>& requests, bool counters,
                 MetricMap* out, RunRecord* record) {
  ESD_TRACE_SPAN("bench.probe.engine");
  const esd::core::EngineCounters before = image.Counters();
  std::vector<double> scan_us;
  std::vector<double> pad_us;
  uint64_t failed = 0;
  for (const Request& r : requests) {
    const double a = NowSeconds();
    const size_t slab = image.FindSlab(r.tau);
    esd::core::TopKResult result = image.QueryAtSlab(slab, r.k, false);
    const double b = NowSeconds();
    image.PadQueryResult(slab, r.k, &result);
    const double c = NowSeconds();
    scan_us.push_back((b - a) * 1e6);
    pad_us.push_back((c - b) * 1e6);
    if (result.size() != ExpectedSize(r.k, image.NumRegisteredEdges())) {
      ++failed;
    }
  }
  record->AddOps(requests.size(), failed, "direct engine calls");
  Put(out, "engine.scan_us_p50", Median(std::move(scan_us)), "us");
  Put(out, "engine.pad_us_p50", Median(std::move(pad_us)), "us");
  if (counters) {
    EngineCounterLayer(before, image.Counters(), requests.size(), out);
  }
}

void ProbeRtt(uint16_t port, uint64_t seed, uint64_t live_edges,
              MetricMap* out, RunRecord* record,
              std::vector<double>* send_us) {
  ESD_TRACE_SPAN("bench.probe.rtt");
  PointMix mix(StreamSeed(seed, kProbeStream));
  OpRecorder ops(kProbeSeconds + 30.0);
  const LoopResult loop =
      WireLoop(port, &mix, 1, 1, kProbeSeconds, live_edges, &ops, send_us);
  record->AddOps(loop.attempted(), loop.failed, "depth-1 wire replies");
  Put(out, "net.rtt_p50_us", ops.LatencyQuantile(0.5), "us");
}

void ProbeNet(const FrozenEsdIndex& image, uint64_t seed, MetricMap* out,
              RunRecord* record) {
  WireStack stack(image);
  const esd::net::NetServer::Stats before = stack.server->SnapStats();
  std::vector<double> send_us;
  const uint64_t queries_before = before.queries;
  ProbeRtt(stack.server->port(), seed, image.NumRegisteredEdges(), out, record,
           &send_us);
  const esd::net::NetServer::Stats after = stack.server->SnapStats();
  NetTrafficLayer(before, after, after.queries - queries_before, send_us, out);
}

void ProbeServe(const FrozenEsdIndex& image, uint64_t seed, MetricMap* out,
                RunRecord* record) {
  ESD_TRACE_SPAN("bench.probe.serve");
  std::unique_ptr<esd::serve::EsdQueryService> service =
      MakeService(image, kDeepWorkers);
  DeepMix mix(StreamSeed(seed, kProbeStream));
  OpRecorder ops(kProbeSeconds + 30.0);
  const LoopResult loop =
      ServiceLoop(service.get(), [&] { return mix.Next(); }, kDeepWindow,
                  kProbeSeconds, image.NumRegisteredEdges(), &ops);
  record->AddOps(loop.attempted(), loop.failed, "serve probe replies");
  ServeLayer(*service, 0, out);
}

void ProbeLive(const esd::graph::Graph& g, uint64_t seed,
               const std::string& dir, MetricMap* out, RunRecord* record) {
  ESD_TRACE_SPAN("bench.probe.live");
  ResetDir(dir);
  LiveStack stack(g, dir);
  ChurnStream churn(g, StreamSeed(seed, kChurnStreamId), kChurnLag);
  PointMix reads(StreamSeed(seed, kReadStream));
  OpRecorder ops(90.0);
  const LiveLoopResult loop = LiveLoop(&stack, &churn, &reads, 60.0,
                                       kProbeLiveBatches, true, &ops);
  record->AddOps(loop.attempted(), loop.failed, "live probe batches");
  LiveLayer(&stack, loop, ops, out, record);
}

void ProbeWal(const esd::graph::Graph& g, uint64_t seed,
              const std::string& dir, MetricMap* out, RunRecord* record) {
  ESD_TRACE_SPAN("bench.probe.wal");
  ResetDir(dir);
  esd::live::WalWriter wal;
  std::string error;
  record->Check(wal.Open(dir + "/wal", &error), "standalone WAL opens");
  ChurnStream churn(g, StreamSeed(seed, kChurnStreamId), kChurnLag);
  std::vector<esd::live::LiveUpdate> batch;
  std::vector<double> append_us;
  std::vector<double> sync_us;
  uint64_t seq = 0;
  uint64_t failed = 0;
  for (size_t b = 0; b < kProbeLiveBatches; ++b) {
    churn.NextBatch(kLiveBatch, &batch);
    bool ok = true;
    for (const esd::live::LiveUpdate& up : batch) {
      esd::live::WalRecord rec;
      rec.seq = ++seq;
      rec.kind = up.kind;
      rec.u = up.u;
      rec.v = up.v;
      const double a = NowSeconds();
      ok &= wal.Append(rec, &error);
      append_us.push_back((NowSeconds() - a) * 1e6);
    }
    const double a = NowSeconds();
    ok &= wal.Sync(&error);
    sync_us.push_back((NowSeconds() - a) * 1e6);
    if (!ok) ++failed;
  }
  record->AddOps(kProbeLiveBatches, failed, "standalone WAL batches");
  Put(out, "live.wal_append_us", Median(std::move(append_us)), "us");
  Put(out, "live.wal_sync_us", Median(std::move(sync_us)), "us");
}

}  // namespace perfbench
