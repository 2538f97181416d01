// Demo of the serving layer: build (or load) a read-optimized
// FrozenEsdIndex, stand up an EsdQueryService on top of it, fire a burst
// of synthetic client traffic at the service from several threads, and
// print the observability snapshot — throughput, p50/p95/p99 end-to-end
// latency, queue-wait vs execute tails, admission rejects and deadline
// misses.
//
// After the burst the server reads commands from stdin until EOF/QUIT:
//   QUERY <k> <tau>   run one query through the service, print the edges
//   INSERT <u> <v>    (live mode) durably insert an edge
//   DELETE <u> <v>    (live mode) durably delete an edge
//   CHECKPOINT        (live mode) persist a snapshot + compact the WAL
//   STATS             one-line service metrics snapshot (+ live stats and
//                     the health=ok|degraded|read-only field)
//   METRICS           Prometheus text exposition of the global registry,
//                     terminated by a "# EOF" line
//   SLOWLOG [n]       the n (default: all retained) worst requests of the
//                     trailing window as JSON lines, worst first, each with
//                     its full per-stage attribution, tau/k, scorer, epoch,
//                     cache outcome, and health at admission
//   HISTORY [n]       the newest n (default 10) metric time-series
//                     intervals as JSON lines (qps, cache hit-rate, rates
//                     of every changed counter, changed gauges)
//   HISTORY PROM      the latest interval's rates as recording-rule-style
//                     Prometheus gauges, terminated by "# EOF"
//   FAILPOINT <name> <spec>   arm a fail point at runtime (spec syntax as
//                     in $ESD_FAILPOINTS, e.g. "error(ENOSPC)" or "off");
//                     FAILPOINT LIST enumerates every compiled-in site with
//                     live hit/fire counts; FAILPOINT clearall disarms all
//   REFREEZE          (live mode) synchronously publish a fresh epoch
//   TRACE <path>      write collected spans as Chrome trace JSON
//   QUIT              shut down
// (With stdin at EOF — e.g. the smoke test — the loop exits immediately,
// unless --listen is active: then the server keeps serving the socket until
// SIGINT/SIGTERM or a stdin QUIT triggers the graceful drain.)
//
// With --listen PORT (0 = ephemeral; the bound port is printed on the
// "listening on" line) the same command set is served over TCP by the
// src/net/ event loop: text mode is line-compatible with stdin (nc works),
// binary-framed clients (net/client.h) get the length-prefixed protocol,
// and `GET /metrics` on the same port answers a Prometheus scrape.
//
// With --live-dir the server runs on a LiveEsdIndex: updates are logged to
// <dir>/wal.bin, folded into the writer index, and published to readers as
// immutable epochs; on startup the server recovers from <dir>/snapshot.bin
// plus the WAL suffix (surviving SIGKILL mid-stream).
//
// Usage:
//   esd_server --dataset pokec-s [--scale 0.2] [--threads 4] [--clients 8]
//              [--requests 5000] [--max-queue 1024] [--deadline-us 0]
//              [--engine frozen] [--scorer esd|truss|egobw]
//              [--live-dir <dir>] [--refreeze-every N]
//              [--slowlog N] [--history-interval-ms M] [--history-samples S]
//   esd_server --file <edge_list> [--load-index <path>] ...
//
// --scorer serves a different diversity definition on the same stack: the
// WAL, snapshot, and index files are stamped with the scorer id, so a
// --live-dir or --load-index written under another scorer is refused.
//
// Examples:
//   build/examples/esd_server --dataset pokec-s --requests 2000
//   build/examples/esd_server --dataset dblp-s --live-dir /tmp/esd_live

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/frozen_index.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "esd_version.h"
#include "fault/failpoint.h"
#include "obs/health.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "live/live_index.h"
#include "live/wal.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "esd_server %s\n"
               "usage: esd_server (--file <edge_list> | --dataset <name>)\n"
               "                  [--scale S] [--engine E] [--threads N]\n"
               "                  [--scorer esd|truss|egobw]\n"
               "                  [--clients C] [--requests R]\n"
               "                  [--max-queue Q] [--deadline-us D]\n"
               "                  [--load-index P] [--cache-bytes B]\n"
               "                  [--live-dir DIR] [--refreeze-every N]\n"
               "                  [--slowlog N] [--history-interval-ms M]\n"
               "                  [--history-samples S]\n"
               "                  [--listen PORT] [--bind ADDR]\n"
               "                  [--force-poll] [--drain-timeout-ms D]\n",
               esd::kVersionString);
}

/// printf into a growing string — the command executor produces its output
/// as a string so one implementation serves both stdin and socket clients.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void AppendF(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  char stack_buf[512];
  const int n = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
  va_end(ap);
  if (n < 0) {
    va_end(ap2);
    return;
  }
  if (n < static_cast<int>(sizeof(stack_buf))) {
    out->append(stack_buf, static_cast<size_t>(n));
  } else {
    std::string big(static_cast<size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, ap2);
    big.resize(static_cast<size_t>(n));
    out->append(big);
  }
  va_end(ap2);
}

/// The active listener, for the SIGINT/SIGTERM handler. RequestShutdown is
/// one atomic store plus one pipe write — async-signal-safe — and the main
/// thread does the actual teardown after Join() returns.
std::atomic<esd::net::NetServer*> g_net_server{nullptr};

void HandleShutdownSignal(int) {
  esd::net::NetServer* server = g_net_server.load();
  if (server != nullptr) server->RequestShutdown();
}

const char* StatusName(esd::serve::ResponseStatus s) {
  switch (s) {
    case esd::serve::ResponseStatus::kOk:
      return "ok";
    case esd::serve::ResponseStatus::kRejectedQueueFull:
      return "rejected";
    case esd::serve::ResponseStatus::kDeadlineMissed:
      return "deadline-missed";
    case esd::serve::ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;

  std::string file, dataset, load_index, live_dir, engine_name = "frozen";
  std::string scorer_name = "esd";
  double scale = 1.0;
  unsigned threads = 0;  // 0 = ThreadPool::DefaultThreadCount()
  unsigned clients = 4;
  uint64_t requests = 5000;
  size_t max_queue = 1024;
  uint64_t deadline_us = 0;
  uint64_t refreeze_every = 256;
  size_t cache_bytes = 0;  // 0 = result cache off
  size_t slowlog_capacity = 32;
  uint64_t history_interval_ms = 1000;  // 0 = no background sampler
  size_t history_samples = 120;
  bool listen = false;   // --listen PORT: start the TCP front end
  int listen_port = 0;   // 0 = kernel-assigned ephemeral port
  std::string bind_address = "127.0.0.1";
  bool force_poll = false;
  uint64_t drain_timeout_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--file") {
      file = next();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--scorer") {
      scorer_name = next();
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--clients") {
      clients = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--requests") {
      requests = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--max-queue") {
      max_queue = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--deadline-us") {
      deadline_us = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--load-index") {
      load_index = next();
    } else if (arg == "--live-dir") {
      live_dir = next();
    } else if (arg == "--refreeze-every") {
      refreeze_every = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--cache-bytes") {
      cache_bytes = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--slowlog") {
      slowlog_capacity = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--history-interval-ms") {
      history_interval_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--history-samples") {
      history_samples = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--listen") {
      listen = true;
      listen_port = std::atoi(next());
    } else if (arg == "--bind") {
      bind_address = next();
    } else if (arg == "--force-poll") {
      force_poll = true;
    } else if (arg == "--drain-timeout-ms") {
      drain_timeout_ms = static_cast<uint64_t>(std::atoll(next()));
    } else {
      Usage();
      return 2;
    }
  }
  if (file.empty() == dataset.empty()) {  // exactly one source required
    Usage();
    return 2;
  }
  if (clients == 0) clients = 1;
  const core::DiversityScorer* scorer = core::FindScorer(scorer_name);
  if (scorer == nullptr) {
    std::fprintf(stderr, "error: unknown scorer '%s' (expected one of:",
                 scorer_name.c_str());
    for (const std::string& name : core::ScorerNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  // Surface injected faults up front: an operator (or the chaos smoke
  // script) should be able to see from the log which points are armed.
  {
    const std::vector<std::string> active =
        fault::FailPointRegistry::Global().ActiveNames();
    if (!active.empty()) {
      std::string joined;
      for (const std::string& name : active) {
        if (!joined.empty()) joined += ", ";
        joined += name;
      }
      std::printf("fail points active: %s%s\n", joined.c_str(),
                  fault::kFailPointsCompiledIn
                      ? ""
                      : " (sites compiled out: ESD_FAULT=OFF)");
    }
  }

  graph::Graph g;
  if (!file.empty()) {
    std::string error;
    if (!graph::LoadEdgeList(file, &g, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  } else {
    g = gen::LoadStandardDataset(dataset, scale).graph;
  }
  std::printf("graph: n=%u m=%u\n", g.NumVertices(), g.NumEdges());

  util::Timer timer;
  std::unique_ptr<core::EsdQueryEngine> engine;
  std::unique_ptr<live::LiveEsdIndex> live;
  if (!live_dir.empty()) {
    std::filesystem::create_directories(live_dir);
    live::LiveOptions live_options;
    live_options.wal_path =
        (std::filesystem::path(live_dir) / "wal.bin").string();
    live_options.snapshot_path =
        (std::filesystem::path(live_dir) / "snapshot.bin").string();
    live_options.refreeze_every = refreeze_every;
    live_options.scorer = scorer->Kind();
    live_options.registry = &obs::MetricRegistry::Global();
    std::string error;
    live = live::LiveEsdIndex::Open(g, live_options, &error);
    if (live == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    engine_name = "live";
    const live::RecoveredState& rec = live->recovery();
    std::printf(
        "live index up: %.1f ms (snapshot %s, replayed %llu wal records, "
        "wal tail %s, applied_seq %llu)\n",
        timer.ElapsedMillis(), rec.snapshot_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(rec.replay_applied),
        live::WalTailStatusName(rec.wal.tail),
        static_cast<unsigned long long>(live->Stats().applied_seq));
  } else if (!load_index.empty()) {
    core::FrozenEsdIndex index;
    const core::IndexIoResult res =
        core::LoadFrozenIndex(load_index, &index, scorer->Kind());
    if (!res) {
      std::fprintf(stderr, "error: %s\n", res.message.c_str());
      return 1;
    }
    engine = std::make_unique<core::FrozenEsdIndex>(std::move(index));
    engine_name = "frozen";
    std::printf("frozen engine loaded from %s: %.1f ms\n",
                load_index.c_str(), timer.ElapsedMillis());
  } else {
    std::string error;
    engine = core::BuildQueryEngine(g, engine_name, *scorer, &error);
    if (engine == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::printf("%s engine build (%s scorer): %.1f ms\n", engine_name.c_str(),
                std::string(scorer->Name()).c_str(), timer.ElapsedMillis());
  }

  serve::EsdQueryService::Options opts;
  opts.num_threads = threads;
  opts.max_queue = max_queue;
  opts.cache_bytes = cache_bytes;
  opts.slowlog_capacity = slowlog_capacity;
  // Host the service metrics on the process-wide registry so METRICS can
  // dump them alongside the engine counters and phase gauges.
  opts.registry = &obs::MetricRegistry::Global();
  // Fold the live index's fault posture (read-only / breaker-open) into
  // the service's Health() so STATS and METRICS report one combined state.
  if (live != nullptr) {
    live::LiveEsdIndex* live_raw = live.get();
    opts.health_source = [live_raw] { return live_raw->Health(); };
  }
  // Live mode serves through the epoch-aware engine provider: each batch
  // pins the current epoch (engine + epoch id), so INSERT/DELETE/CHECKPOINT
  // swap engines under a running service without a restart, and the result
  // cache keys its generations on the pinned epoch.
  std::unique_ptr<serve::EsdQueryService> service_ptr;
  if (live != nullptr) {
    service_ptr =
        std::make_unique<serve::EsdQueryService>(live->EngineProvider(), opts);
    // Rotate the cache generation the moment an epoch publishes rather
    // than lazily on the first post-swap lookup (cleared again before the
    // service dies — the refreeze pool outlives it).
    service_ptr->NotifyEpoch(live->CurrentSnapshot()->epoch);
    serve::EsdQueryService* svc = service_ptr.get();
    live->SetEpochListener(
        [svc](uint64_t epoch, uint64_t /*seq*/) { svc->NotifyEpoch(epoch); });
  } else {
    service_ptr = std::make_unique<serve::EsdQueryService>(*engine, opts);
  }
  serve::EsdQueryService& service = *service_ptr;
  std::printf("service up: %u worker threads, queue bound %zu%s\n\n",
              service.num_threads(), max_queue,
              service.cache() != nullptr ? ", result cache on" : "");

  // Metrics time-series ring: periodic registry snapshots with delta/rate
  // computation, served by the HISTORY command. The pre-sample hook pushes
  // the pull-style gauges (live lag, combined health) so every interval is
  // coherent. Stopped before the service/live teardown below.
  obs::MetricHistory::Options hopts;
  hopts.capacity = std::max<size_t>(2, history_samples);
  hopts.interval = std::chrono::milliseconds(
      history_interval_ms == 0 ? 1000 : history_interval_ms);
  {
    live::LiveEsdIndex* live_raw = live.get();
    serve::EsdQueryService* svc = service_ptr.get();
    hopts.pre_sample = [live_raw, svc] {
      if (live_raw != nullptr) live_raw->ExportMetrics();
      obs::ExportHealth(obs::MetricRegistry::Global(), svc->Health());
    };
  }
  obs::MetricHistory history(obs::MetricRegistry::Global(), hopts);
  history.SampleNow();  // interval 0 starts at server-up, not first scrape
  if (history_interval_ms > 0) history.Start();

  // Burst: `clients` threads each fire their share of the requests, mixing
  // taus and ks, then report one sample response apiece.
  const uint64_t per_client = (requests + clients - 1) / clients;
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  std::vector<serve::QueryResponse> samples(clients);
  util::Timer wall;
  for (unsigned c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      util::Rng rng(0xC0FFEE + c);
      serve::QueryResponse last;
      for (uint64_t r = 0; r < per_client; ++r) {
        serve::QueryRequest rq;
        rq.k = 1 + static_cast<uint32_t>(rng.NextBounded(50));
        rq.tau = 1 + static_cast<uint32_t>(rng.NextBounded(8));
        rq.deadline_us = deadline_us;
        last = service.Query(rq);
      }
      samples[c] = last;
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double wall_s = wall.ElapsedSeconds();

  const uint64_t sent = per_client * clients;
  std::printf("%llu requests in %.1f ms -> %.0f qps\n",
              static_cast<unsigned long long>(sent), wall_s * 1e3,
              static_cast<double>(sent) / wall_s);
  for (unsigned c = 0; c < clients; ++c) {
    const serve::QueryResponse& s = samples[c];
    std::printf("client %u last response: %s, %zu edges, queue %.1f us, "
                "exec %.1f us\n",
                c, StatusName(s.status), s.result.size(), s.queue_us,
                s.exec_us);
  }

  const serve::MetricsSnapshot snap = service.metrics().Snap();
  std::printf("\nservice metrics:\n");
  std::printf("  accepted/completed:   %llu / %llu\n",
              static_cast<unsigned long long>(snap.accepted),
              static_cast<unsigned long long>(snap.completed));
  std::printf("  rejected (queue full): %llu\n",
              static_cast<unsigned long long>(snap.rejected));
  std::printf("  deadline missed:      %llu\n",
              static_cast<unsigned long long>(snap.deadline_missed));
  std::printf("  batches (saved slab searches): %llu (%llu)\n",
              static_cast<unsigned long long>(snap.batches),
              static_cast<unsigned long long>(snap.slab_searches_saved));
  std::printf("  latency p50/p95/p99:  %.1f / %.1f / %.1f us\n",
              snap.total.p50_us, snap.total.p95_us, snap.total.p99_us);
  std::printf("  queue-wait p95:       %.1f us\n", snap.queue_wait.p95_us);
  std::printf("  execute p95:          %.1f us\n", snap.execute.p95_us);
  std::printf("{\"bench\":\"esd_server\",\"engine\":\"%s\",\"scorer\":\"%s\","
              "\"dataset\":\"%s\","
              "\"op\":\"burst\",\"wall_ms\":%.6f,\"bytes\":%llu,%s}\n",
              engine_name.c_str(), std::string(scorer->Name()).c_str(),
              (dataset.empty() ? file : dataset).c_str(), wall_s * 1e3,
              static_cast<unsigned long long>(
                  live != nullptr ? live->CurrentEngine()->MemoryBytes()
                                  : engine->MemoryBytes()),
              serve::MetricsJsonFields(snap).c_str());

  // ---- Command executor -------------------------------------------------
  // One implementation serves both front ends: the stdin loop below and the
  // socket text mode (NetServer's CommandFn). Output goes into a string so
  // the caller decides where it lands (stdout or a connection's outbox).
  // Commands are rare and cheap; one mutex serializes the two front ends.
  std::mutex command_mu;

  // Prometheus exposition for the HTTP GET /metrics scrape path,
  // "# EOF"-terminated like the METRICS command so both pass
  // scripts/metrics_lint.sh unchanged.
  auto metrics_text = [&]() -> std::string {
    std::lock_guard<std::mutex> lock(command_mu);
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    if (live != nullptr) {
      live->ExportMetrics();
      core::ExportEngineCounters(*live->CurrentEngine(), &registry);
    } else {
      core::ExportEngineCounters(*engine, &registry);
    }
    // The combined (service + live) health beats the live-only view
    // ExportMetrics just wrote.
    obs::ExportHealth(registry, service.Health());
    return registry.PrometheusText() + "# EOF\n";
  };

  // Renders one query response exactly as the stdin loop always printed it,
  // so text-mode socket clients (smoke scripts over nc) see identical bytes.
  auto format_query_text = [](const serve::QueryResponse& resp) {
    std::string out;
    AppendF(&out, "OK %s %zu edges, queue %.1f us, exec %.1f us\n",
            StatusName(resp.status), resp.result.size(), resp.queue_us,
            resp.exec_us);
    // The request-scoped attribution: where this specific query's time
    // went, plus its id (grep the rid in TRACE output), cache outcome,
    // and serving epoch.
    AppendF(&out, "  rid=%llu epoch=%llu cache=%s",
            static_cast<unsigned long long>(resp.ctx.request_id),
            static_cast<unsigned long long>(resp.ctx.epoch),
            obs::CacheOutcomeName(resp.ctx.cache));
    AppendF(&out, " stages[us]:");
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      AppendF(&out, " %s=%.1f", obs::StageName(static_cast<obs::Stage>(s)),
              resp.ctx.StageMicros(static_cast<obs::Stage>(s)));
    }
    AppendF(&out, "\n");
    for (size_t i = 0; i < resp.result.size(); ++i) {
      AppendF(&out, "  %zu (%u,%u) %u\n", i + 1, resp.result[i].edge.u,
              resp.result[i].edge.v, resp.result[i].score);
    }
    return out;
  };

  // Returns false to end the session (QUIT/EXIT): the stdin loop breaks,
  // a socket connection closes after the reply flushes.
  auto execute_command = [&](const std::string& line, std::string* out) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) return true;
    if (cmd == "QUIT" || cmd == "EXIT") return false;
    if (cmd == "QUERY") {
      // Stdin path only: the socket front end intercepts QUERY lines and
      // submits them through the async admission path instead.
      serve::QueryRequest rq;
      std::string extra;
      if (!(in >> rq.k >> rq.tau) || in >> extra) {
        AppendF(out, "ERR usage: QUERY <k> <tau>\n");
        return true;
      }
      rq.deadline_us = deadline_us;
      const serve::QueryResponse resp = service.Query(rq);
      *out += format_query_text(resp);
      return true;
    }
    std::lock_guard<std::mutex> lock(command_mu);
    if (cmd == "INSERT" || cmd == "DELETE") {
      if (live == nullptr) {
        AppendF(out, "ERR updates need --live-dir\n");
        return true;
      }
      live::LiveUpdate update;
      update.kind = cmd == "INSERT" ? live::UpdateKind::kInsert
                                    : live::UpdateKind::kDelete;
      if (!(in >> update.u >> update.v)) {
        AppendF(out, "ERR usage: %s <u> <v>\n", cmd.c_str());
        return true;
      }
      const live::ApplyResult result = live->ApplyTyped(update);
      if (result.status == live::ApplyStatus::kOk && result.processed == 1) {
        const live::LiveStats s = live->Stats();
        AppendF(out, "OK seq=%llu wal_bytes=%llu epoch=%llu\n",
                static_cast<unsigned long long>(s.applied_seq),
                static_cast<unsigned long long>(s.wal_bytes),
                static_cast<unsigned long long>(s.snapshot_epoch));
      } else {
        // Typed rejection: scripts match on the status token (wal-error,
        // degraded, bounds) without parsing the prose.
        AppendF(out, "ERR %s %s\n", live::ApplyStatusName(result.status),
                result.message.c_str());
      }
    } else if (cmd == "CHECKPOINT") {
      if (live == nullptr) {
        AppendF(out, "ERR checkpoint needs --live-dir\n");
        return true;
      }
      std::string error;
      if (live->Checkpoint(&error)) {
        const live::LiveStats s = live->Stats();
        AppendF(out, "OK seq=%llu wal_bytes=%llu epoch=%llu\n",
                static_cast<unsigned long long>(s.applied_seq),
                static_cast<unsigned long long>(s.wal_bytes),
                static_cast<unsigned long long>(s.snapshot_epoch));
      } else {
        AppendF(out, "ERR %s\n", error.c_str());
      }
    } else if (cmd == "REFREEZE") {
      if (live != nullptr) {
        AppendF(out, live->RefreezeNow() ? "OK refrozen\n"
                                         : "ERR refreeze failed\n");
      } else {
        AppendF(out, "ERR refreeze needs --live-dir\n");
      }
    } else if (cmd == "STATS") {
      const serve::MetricsSnapshot s = service.metrics().Snap();
      AppendF(out,
              "OK accepted=%llu completed=%llu rejected=%llu "
              "deadline_missed=%llu batches=%llu queue_depth=%llu "
              "p50_us=%.1f p95_us=%.1f p99_us=%.1f",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.deadline_missed),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.queue_depth),
              s.total.p50_us, s.total.p95_us, s.total.p99_us);
      if (live != nullptr) {
        const live::LiveStats ls = live->Stats();
        AppendF(out,
                " live_seq=%llu live_epoch=%llu live_lag=%llu "
                "live_age_s=%.3f wal_bytes=%llu checkpoints=%llu "
                "wal_retries=%llu wal_failures=%llu "
                "degraded_rejections=%llu heals=%llu breaker_open=%d",
                static_cast<unsigned long long>(ls.applied_seq),
                static_cast<unsigned long long>(ls.snapshot_epoch),
                static_cast<unsigned long long>(ls.snapshot_lag),
                ls.snapshot_age_s,
                static_cast<unsigned long long>(ls.wal_bytes),
                static_cast<unsigned long long>(ls.checkpoints),
                static_cast<unsigned long long>(ls.wal_retries),
                static_cast<unsigned long long>(ls.wal_append_failures),
                static_cast<unsigned long long>(ls.degraded_rejections),
                static_cast<unsigned long long>(ls.heals),
                ls.breaker_open ? 1 : 0);
      }
      if (service.cache() != nullptr) {
        const serve::ResultCache::Stats cs = service.cache()->Snap();
        AppendF(out,
                " cache_hits=%llu cache_misses=%llu cache_hit_rate=%.3f "
                "cache_entries=%zu cache_bytes=%llu cache_epoch=%llu "
                "cache_evictions=%llu",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses), cs.hit_rate,
                cs.entries, static_cast<unsigned long long>(cs.bytes),
                static_cast<unsigned long long>(cs.epoch),
                static_cast<unsigned long long>(cs.evictions));
      }
      if (g_net_server.load() != nullptr) {
        const net::NetServer::Stats ns = g_net_server.load()->SnapStats();
        AppendF(out,
                " net_accepts=%llu net_open=%llu net_inflight=%llu "
                "net_parse_errors=%llu net_backpressure_closes=%llu",
                static_cast<unsigned long long>(ns.accepts),
                static_cast<unsigned long long>(ns.open_connections),
                static_cast<unsigned long long>(ns.inflight),
                static_cast<unsigned long long>(ns.parse_errors),
                static_cast<unsigned long long>(ns.backpressure_closes));
      }
      AppendF(out, " scorer=%s", std::string(scorer->Name()).c_str());
      AppendF(out, " health=%s", obs::HealthStateName(service.Health()));
      AppendF(out, "\n");
    } else if (cmd == "METRICS") {
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      if (live != nullptr) {
        live->ExportMetrics();
        core::ExportEngineCounters(*live->CurrentEngine(), &registry);
      } else {
        core::ExportEngineCounters(*engine, &registry);
      }
      // The combined (service + live) health beats the live-only view
      // ExportMetrics just wrote.
      obs::ExportHealth(registry, service.Health());
      *out += registry.PrometheusText();
      AppendF(out, "# EOF\n");
    } else if (cmd == "SLOWLOG") {
      size_t n = 0;  // 0 = everything retained
      in >> n;
      const serve::SlowQueryLog& slowlog = service.slow_log();
      const std::vector<std::string> lines = slowlog.JsonLines(n);
      AppendF(out,
              "OK slowlog %zu entries (capacity %zu, window %llds, "
              "%llu requests considered)\n",
              lines.size(), slowlog.capacity(),
              static_cast<long long>(slowlog.window().count()),
              static_cast<unsigned long long>(slowlog.recorded()));
      for (const std::string& entry : lines) {
        AppendF(out, "%s\n", entry.c_str());
      }
    } else if (cmd == "HISTORY") {
      std::string what;
      in >> what;
      // A scrape-time sample makes the command self-contained: even with
      // the background sampler off (--history-interval-ms 0) there are
      // always >= 2 samples to diff.
      history.SampleNow();
      if (what == "PROM") {
        *out += history.RatesPrometheus();
        AppendF(out, "# EOF\n");
      } else {
        const size_t n =
            what.empty() ? 10 : static_cast<size_t>(std::atoll(what.c_str()));
        const std::vector<std::string> lines =
            history.IntervalsJson(n == 0 ? 10 : n);
        AppendF(out,
                "OK history %zu intervals (ring %zu/%zu, interval "
                "%llu ms)\n",
                lines.size(), history.NumSamples(), history.capacity(),
                static_cast<unsigned long long>(history_interval_ms));
        for (const std::string& interval : lines) {
          AppendF(out, "%s\n", interval.c_str());
        }
      }
    } else if (cmd == "FAILPOINT") {
      std::string name, spec;
      in >> name >> spec;
      if (name.empty()) {
        AppendF(out, "ERR usage: FAILPOINT <name> <spec> | FAILPOINT LIST | "
                     "FAILPOINT clearall\n");
        return true;
      }
      if (name == "LIST" || name == "list") {
        // Operator discovery: every compiled-in site with its live
        // hit/fire counters, then any armed names outside the curated
        // table.
        fault::FailPointRegistry& fpr = fault::FailPointRegistry::Global();
        const std::vector<fault::FailPointSite> sites =
            fault::BuiltinFailPointSites();
        std::vector<std::string> active = fpr.ActiveNames();
        AppendF(out, "OK %zu sites, %zu armed%s\n", sites.size(),
                active.size(),
                fault::kFailPointsCompiledIn
                    ? ""
                    : " (sites compiled out: ESD_FAULT=OFF)");
        for (const fault::FailPointSite& site : sites) {
          const std::string site_name(site.name);
          const bool armed =
              std::find(active.begin(), active.end(), site_name) !=
              active.end();
          AppendF(out, "%s %s hits=%llu fires=%llu - %.*s\n",
                  armed ? "armed " : "site  ", site_name.c_str(),
                  static_cast<unsigned long long>(fpr.HitCount(site_name)),
                  static_cast<unsigned long long>(fpr.FireCount(site_name)),
                  static_cast<int>(site.description.size()),
                  site.description.data());
        }
        // Armed names outside the curated table (test-only points). These
        // carry real hit counts too.
        for (const std::string& armed_name : active) {
          const bool curated =
              std::any_of(sites.begin(), sites.end(),
                          [&](const fault::FailPointSite& site) {
                            return site.name == armed_name;
                          });
          if (curated) continue;
          AppendF(out, "armed %s hits=%llu fires=%llu - (instance)\n",
                  armed_name.c_str(),
                  static_cast<unsigned long long>(fpr.HitCount(armed_name)),
                  static_cast<unsigned long long>(fpr.FireCount(armed_name)));
        }
        return true;
      }
      if (name == "clearall") {
        fault::FailPointRegistry::Global().ClearAll();
        AppendF(out, "OK fail points cleared\n");
        return true;
      }
      if (spec.empty()) {
        AppendF(out, "ERR usage: FAILPOINT <name> <spec>\n");
        return true;
      }
      std::string error;
      if (!fault::FailPointRegistry::Global().Set(name, spec, &error)) {
        AppendF(out, "ERR %s\n", error.c_str());
        return true;
      }
      AppendF(out, "OK %s=%s%s\n", name.c_str(), spec.c_str(),
              fault::kFailPointsCompiledIn
                  ? ""
                  : " (sites compiled out: ESD_FAULT=OFF, no effect)");
    } else if (cmd == "TRACE") {
      std::string path;
      if (!(in >> path)) {
        AppendF(out, "ERR usage: TRACE <path>\n");
        return true;
      }
      std::string error;
      if (obs::Tracer::Global().WriteChromeTrace(path, &error)) {
        AppendF(out, "OK trace written to %s\n", path.c_str());
      } else {
        AppendF(out, "ERR %s\n", error.c_str());
      }
    } else {
      AppendF(out, "ERR unknown command (QUERY/INSERT/DELETE/CHECKPOINT/"
                   "REFREEZE/STATS/METRICS/SLOWLOG/HISTORY/FAILPOINT/"
                   "TRACE/QUIT)\n");
    }
    return true;
  };

  // ---- Network front end (--listen) --------------------------------------
  std::unique_ptr<net::NetServer> net_server;
  if (listen) {
    net::NetServer::Options nopts;
    nopts.bind_address = bind_address;
    nopts.port = static_cast<uint16_t>(listen_port);
    nopts.force_poll = force_poll;
    nopts.drain_timeout = std::chrono::milliseconds(drain_timeout_ms);
    nopts.registry = &obs::MetricRegistry::Global();
    net::NetServer::Handlers handlers;
    handlers.submit = [&service, deadline_us](
                          const serve::QueryRequest& rq,
                          std::function<void(serve::QueryResponse)> done) {
      serve::QueryRequest r = rq;
      // Text-mode queries carry no deadline of their own: the server's
      // --deadline-us default applies, same as the stdin loop.
      if (r.deadline_us == 0) r.deadline_us = deadline_us;
      service.SubmitAsync(r, std::move(done));
    };
    handlers.command = execute_command;
    handlers.format_query = format_query_text;
    handlers.metrics_text = metrics_text;
    net_server =
        std::make_unique<net::NetServer>(std::move(handlers), nopts);
    std::string error;
    if (!net_server->Start(&error)) {
      std::fprintf(stderr, "error: listen failed: %s\n", error.c_str());
      return 1;
    }
    g_net_server.store(net_server.get());
    // SIGINT/SIGTERM trigger the graceful drain (stop accepting, serve
    // in-flight queries, flush outboxes, then exit).
    struct sigaction sa {};
    sa.sa_handler = HandleShutdownSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // Readiness line: smoke scripts parse the port off it.
    std::printf("listening on %s:%u (%s backend)\n", bind_address.c_str(),
                net_server->port(), net_server->backend_name());
    std::fflush(stdout);
  }

  // ---- Stdin command loop -------------------------------------------------
  // With a listener active, stdin EOF no longer tears the process down (an
  // operator backgrounding the server closes stdin immediately); only an
  // explicit stdin QUIT or a shutdown signal does.
  bool stdin_quit = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string out;
    const bool keep_going = execute_command(line, &out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    if (!keep_going) {
      stdin_quit = true;
      break;
    }
  }

  if (net_server != nullptr) {
    if (stdin_quit) {
      // Stdin QUIT shuts the whole server down, gracefully.
      net_server->RequestShutdown();
    }
    // Serve until the drain (signal or QUIT) completes.
    net_server->Join();
    g_net_server.store(nullptr);
    // Shutdown waits for the last in-flight completion, so the stats
    // below are final (inflight provably zero after a clean drain).
    net_server->Shutdown();
    const net::NetServer::Stats ns = net_server->SnapStats();
    // The drain line is the smoke tests' proof of graceful shutdown: every
    // accepted connection was closed and nothing was left in flight.
    std::printf("net: drained (accepts=%llu closed=%llu inflight=%llu "
                "parse_errors=%llu backpressure_closes=%llu)\n",
                static_cast<unsigned long long>(ns.accepts),
                static_cast<unsigned long long>(ns.closed),
                static_cast<unsigned long long>(ns.inflight),
                static_cast<unsigned long long>(ns.parse_errors),
                static_cast<unsigned long long>(ns.backpressure_closes));
    std::fflush(stdout);
  }

  // The history sampler references the service and live index through its
  // pre-sample hook: stop it before either can die. The net server is
  // already down, so no socket command can race the teardown below.
  history.Stop();
  // The background refreeze pool outlives the service object below: drop
  // the epoch listener first so no publish fires into a dead service.
  if (live != nullptr) live->SetEpochListener({});
  service.Stop();
  return 0;
}
