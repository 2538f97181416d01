// The four workloads and the closed loops that drive them. See README.md
// for why each workload exists and which layer it loads.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <mutex>

#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/parallel_builder.h"
#include "gen/datasets.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

using esd::core::FrozenEsdIndex;
using esd::core::TopKResult;
using esd::serve::EsdQueryService;
using esd::serve::QueryRequest;
using esd::serve::QueryResponse;
using esd::serve::ResponseStatus;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// Completion-time horizon of a window's recorder: the window plus room for
// the drain.
double Horizon(double seconds) { return seconds + 30.0; }

// index-build's loop. The window clock runs only while a build runs: the
// image comparison between builds is a check, not part of the op.
LoopResult BuildLoop(const esd::graph::Graph& g, const FrozenEsdIndex& first,
                     double seconds, OpRecorder* ops) {
  LoopResult loop;
  const double end = NowSeconds() + seconds;
  double busy_s = 0;
  while (NowSeconds() < end) {
    const double a = NowSeconds();
    FrozenEsdIndex image;
    {
      ESD_TRACE_SPAN("bench.build");
      image = esd::core::BuildFrozenIndexParallel(g, kBuildThreads);
    }
    const double op_s = NowSeconds() - a;
    busy_s += op_s;
    ops->Record(op_s * 1e6, busy_s);
    ++loop.ops;
    if (!(image == first)) ++loop.failed;
  }
  loop.window_s = busy_s;
  return loop;
}

// A window during which the hypervisor stole more than this share of the
// VM's CPU time is measured once more, and the run reports the window with
// less steal. Steal comes in episodes of seconds to minutes and slows every
// workload about three times as much as its share, so one such window would
// otherwise read as a large regression. Two windows at most keep a run's
// worst case inside the time budget.
constexpr double kMaxStealShare = 0.04;
constexpr int kMaxWindows = 2;

// One timed window: what the loop returned, its per-op record, and the
// host counters around it.
template <typename Result>
struct Window {
  Result loop;
  std::unique_ptr<OpRecorder> ops;
  HostSample before;
  HostSample after;
  double steal() const { return StealShare(before, after); }
};

// Runs `loop` (one timed window into the given recorder) under the steal
// rule above; traced runs measure one window. Every window's ops count in
// `record`, checked ops from discarded windows too.
template <typename Loop>
auto MeasureWindow(const Options& opts, const char* what, RunRecord* record,
                   Loop loop) {
  using Result = decltype(loop(static_cast<OpRecorder*>(nullptr)));
  Window<Result> best;
  const int windows = opts.trace ? 1 : kMaxWindows;
  for (int i = 0; i < windows; ++i) {
    Window<Result> w;
    w.ops = std::make_unique<OpRecorder>(Horizon(opts.seconds));
    w.before = SampleHost();
    w.loop = loop(w.ops.get());
    w.after = SampleHost();
    record->AddOps(w.loop.attempted(), w.loop.failed, what);
    std::fprintf(stderr, "perfbench: window %d ops=%zu steal_share=%.4f\n",
                 i + 1, w.loop.ops, w.steal());
    if (i == 0 || w.steal() < best.steal()) best = std::move(w);
    if (best.steal() <= kMaxStealShare) break;
  }
  return best;
}

// The end-to-end metrics of the reported window, the host counters of the
// run, and (for the traced run) the traced op rate.
template <typename Result>
void EndToEnd(const Options& opts, const std::vector<double>& setup_s,
              const Window<Result>& window, RunRecord* record) {
  const LoopResult& loop = window.loop;
  const HostSample& before = window.before;
  const HostSample& after = window.after;
  const OpRecorder& ops = *window.ops;
  const double rate = ops.ChunkedRate(loop.window_s);
  MetricMap* m = &record->metrics;
  Put(m, "setup_s", Median(setup_s), "s");
  Put(m, "rss_peak_mib", PeakRssMib(), "MiB");
  Put(m, "op_rate", rate, "1/s");
  Put(m, "op_p50_us", ops.LatencyQuantile(0.5), "us");
  const double steal = StealShare(before, after);
  const double load = LoadAverage1();
  const double cpu_us_per_op =
      loop.ops == 0 ? 0
                    : (after.process_cpu_s - before.process_cpu_s) * 1e6 /
                          static_cast<double>(loop.ops);
  Put(m, "host.steal_share", steal, "ratio");
  Put(m, "host.loadavg1", load, "load");
  Put(m, "cpu_us_per_op", cpu_us_per_op, "us");
  Put(m, "trace.op_rate", rate, "1/s");
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trace=%d ops=%zu window_s=%.3f "
               "steal_share=%.4f loadavg1=%.2f cpu_us_per_op=%.3f\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
               loop.ops, loop.window_s, steal, load, cpu_us_per_op);
}

std::vector<Request> Sample(const std::function<Request()>& next, size_t n) {
  std::vector<Request> out(n);
  for (Request& r : out) r = next();
  return out;
}

QueryRequest ToQuery(const Request& r) {
  QueryRequest q;
  q.k = r.k;
  q.tau = r.tau;
  return q;
}

}  // namespace

// ---- Stacks -------------------------------------------------------------

std::unique_ptr<EsdQueryService> MakeService(const FrozenEsdIndex& image,
                                             unsigned workers) {
  EsdQueryService::Options so;
  so.num_threads = workers;
  so.cache_bytes = kCacheBytes;
  return std::make_unique<EsdQueryService>(image, so);
}

WireStack::WireStack(const FrozenEsdIndex& image)
    : service(MakeService(image, kWireWorkers)) {
  esd::net::NetServer::Handlers handlers;
  EsdQueryService* svc = service.get();
  handlers.submit = [svc](const QueryRequest& request,
                          std::function<void(QueryResponse)> done) {
    svc->SubmitAsync(request, std::move(done));
  };
  esd::net::NetServer::Options no;
  no.registry = &net_registry;
  server = std::make_unique<esd::net::NetServer>(std::move(handlers), no);
  std::string error;
  if (!server->Start(&error)) Die("net server: " + error);
}

LiveStack::LiveStack(const esd::graph::Graph& g, const std::string& dir) {
  esd::live::LiveOptions lo;
  lo.wal_path = dir + "/wal";
  lo.snapshot_path = dir + "/snapshot";
  lo.registry = &live_registry;
  std::string error;
  live = esd::live::LiveEsdIndex::Open(g, lo, &error);
  if (live == nullptr) Die("live open: " + error);
  esd::live::LiveEsdIndex* li = live.get();
  EsdQueryService::EpochEngineProvider provider =
      [li]() -> EsdQueryService::PinnedEngine {
    std::shared_ptr<const esd::live::EpochSnapshot> snap =
        li->CurrentSnapshot();
    return {
        std::shared_ptr<const esd::core::EsdQueryEngine>(snap, &snap->index),
        snap->epoch};
  };
  EsdQueryService::Options so;
  so.num_threads = 1;
  so.cache_bytes = kCacheBytes;
  reads = std::make_unique<EsdQueryService>(std::move(provider), so);
  reads->NotifyEpoch(live->CurrentSnapshot()->epoch);
  EsdQueryService* svc = reads.get();
  live->SetEpochListener(
      [svc](uint64_t epoch, uint64_t /*seq*/) { svc->NotifyEpoch(epoch); });
}

LiveStack::~LiveStack() {
  // The refreeze pool outlives the read service: unhook it first.
  live->SetEpochListener({});
}

// ---- Closed loops -------------------------------------------------------

LoopResult WireLoop(uint16_t port, PointMix* mix, unsigned conns,
                    unsigned depth, double seconds, uint64_t live_edges,
                    OpRecorder* ops, std::vector<double>* send_us) {
  struct InFlight {
    uint64_t cid;
    uint32_t k;
    double sent_s;
  };
  struct Conn {
    esd::net::BlockingClient client;
    esd::net::FrameDecoder decoder;
    std::deque<InFlight> inflight;
    std::string out;
    bool dead = false;
  };
  std::vector<Conn> cs(conns);
  for (Conn& c : cs) {
    std::string error;
    if (!c.client.Connect("127.0.0.1", port, &error)) Die("connect: " + error);
    const int flags = ::fcntl(c.client.fd(), F_GETFL, 0);
    ::fcntl(c.client.fd(), F_SETFL, flags | O_NONBLOCK);
  }
  LoopResult res;
  const double t0 = NowSeconds();
  const double end = t0 + seconds;
  res.window_s = seconds;
  uint64_t next_cid = 1;
  std::vector<pollfd> pfds(conns);
  std::vector<char> buf(1 << 16);
  bool sending = true;
  auto fail_conn = [&](Conn& c) {
    res.failed += c.inflight.size();
    res.lost += c.inflight.size();
    c.inflight.clear();
    c.dead = true;
  };
  while (true) {
    double now = NowSeconds();
    if (now >= end) sending = false;
    bool busy = false;
    for (size_t i = 0; i < cs.size(); ++i) {
      Conn& c = cs[i];
      if (c.dead) continue;
      while (sending && c.inflight.size() < depth) {
        const Request r = mix->Next();
        esd::net::QueryFrame q;
        q.cid = next_cid++;
        q.k = r.k;
        q.tau = r.tau;
        q.pad_with_zero_edges = 1;
        c.out += esd::net::EncodeQuery(q);
        c.inflight.push_back({q.cid, r.k, now});
      }
      if (!c.out.empty()) {
        ESD_TRACE_SPAN("bench.wire.send");
        const double a = NowSeconds();
        const ssize_t n = ::send(c.client.fd(), c.out.data(), c.out.size(),
                                 MSG_NOSIGNAL);
        if (send_us != nullptr) send_us->push_back((NowSeconds() - a) * 1e6);
        if (n > 0) {
          c.out.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          fail_conn(c);
          continue;
        }
      }
      busy |= !c.inflight.empty();
      pfds[i].fd = c.client.fd();
      pfds[i].events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    if (!busy) break;
    if (NowSeconds() > end + 10.0) {  // a reply never came
      for (Conn& c : cs) fail_conn(c);
      break;
    }
    ::poll(pfds.data(), pfds.size(), 50);
    for (size_t i = 0; i < cs.size(); ++i) {
      Conn& c = cs[i];
      if (c.dead || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      ESD_TRACE_SPAN("bench.wire.recv");
      while (true) {
        const ssize_t n = ::recv(c.client.fd(), buf.data(), buf.size(), 0);
        if (n > 0) {
          c.decoder.Feed(buf.data(), static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_conn(c);  // peer closed or read error
        break;
      }
      if (c.dead) continue;
      now = NowSeconds();
      esd::net::Frame frame;
      esd::net::WireStatus st;
      while ((st = c.decoder.Next(&frame)) == esd::net::WireStatus::kOk) {
        esd::net::QueryResultFrame result;
        if (c.inflight.empty()) {  // a reply nobody asked for
          ++res.failed;
          ++res.lost;
          fail_conn(c);
          break;
        }
        const InFlight f = c.inflight.front();
        c.inflight.pop_front();
        const bool ok =
            frame.type == esd::net::FrameType::kQueryResult &&
            esd::net::DecodeQueryResult(frame.payload, &result) ==
                esd::net::WireStatus::kOk &&
            result.cid == f.cid &&
            result.status == static_cast<uint8_t>(ResponseStatus::kOk) &&
            result.edges.size() == ExpectedSize(f.k, live_edges);
        if (!ok) ++res.failed;
        ops->Record((now - f.sent_s) * 1e6, now - t0);
        ++res.ops;
      }
      if (!c.dead && st != esd::net::WireStatus::kNeedMore) fail_conn(c);
    }
  }
  return res;
}

LoopResult ServiceLoop(EsdQueryService* service,
                       const std::function<Request()>& next, size_t window,
                       double seconds, uint64_t live_edges,
                       OpRecorder* ops) {
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;  // guarded by mu
  uint64_t failed = 0;  // guarded by mu
  LoopResult res;
  const double t0 = NowSeconds();
  const double end = t0 + seconds;
  res.window_s = seconds;
  size_t issued = 0;
  while (NowSeconds() < end) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < window; });
      ++inflight;
    }
    const Request r = next();
    ++issued;
    const double sent = NowSeconds();
    ESD_TRACE_SPAN("bench.serve.submit");
    service->SubmitAsync(ToQuery(r), [&, sent, r](QueryResponse resp) {
      const double now = NowSeconds();
      const bool ok = resp.status == ResponseStatus::kOk &&
                      resp.result.size() == ExpectedSize(r.k, live_edges);
      ops->Record((now - sent) * 1e6, now - t0);
      // Notify under the lock: the loop's locals die once it sees zero.
      std::lock_guard<std::mutex> lock(mu);
      if (!ok) ++failed;
      --inflight;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return inflight == 0; });
  res.ops = issued;
  res.failed = failed;
  return res;
}

LiveLoopResult LiveLoop(LiveStack* stack, ChurnStream* churn, PointMix* reads,
                        double seconds, size_t max_batches, bool sample_lag,
                        OpRecorder* ops) {
  LiveLoopResult res;
  res.before = stack->live->Stats();
  std::vector<esd::live::LiveUpdate> batch;
  std::mutex mu;
  std::condition_variable cv;
  const double t0 = NowSeconds();
  const double end = t0 + seconds;
  uint64_t since_checkpoint = 0;
  while (NowSeconds() < end && res.ops < max_batches) {
    churn->NextBatch(kLiveBatch, &batch);
    const double a = NowSeconds();
    bool ok;
    {
      ESD_TRACE_SPAN("bench.live.apply_batch");
      const esd::live::ApplyResult ar = stack->live->ApplyBatchTyped(batch);
      ok = ar.status == esd::live::ApplyStatus::kOk &&
           ar.processed == batch.size();
    }
    res.updates += batch.size();
    since_checkpoint += batch.size();
    if (since_checkpoint >= kLiveCheckpointEvery) {
      since_checkpoint = 0;
      ESD_TRACE_SPAN("bench.live.checkpoint");
      std::string error;
      ok &= stack->live->Checkpoint(&error);
    }
    const double b = NowSeconds();
    ops->Record((b - a) * 1e6, b - t0);

    // The reads: all kLiveReadsPerBatch in flight at once, then wait.
    size_t pending = kLiveReadsPerBatch;  // guarded by mu
    bool reads_ok = true;                 // guarded by mu
    {
      ESD_TRACE_SPAN("bench.live.reads");
      for (size_t j = 0; j < kLiveReadsPerBatch; ++j) {
        const Request r = reads->Next();
        const double sent = NowSeconds();
        const uint64_t live_edges = churn->NumPresent();
        stack->reads->SubmitAsync(ToQuery(r), [&, r, sent,
                                               live_edges](QueryResponse resp) {
          const double us = (NowSeconds() - sent) * 1e6;
          const bool rok = resp.status == ResponseStatus::kOk &&
                           resp.result.size() == ExpectedSize(r.k, live_edges);
          std::lock_guard<std::mutex> lock(mu);
          res.read_us.push_back(us);
          reads_ok &= rok;
          --pending;
          cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return pending == 0; });
      ok &= reads_ok;
    }
    if (sample_lag) {
      res.snapshot_lag.push_back(
          static_cast<double>(stack->live->Stats().snapshot_lag));
    }
    if (!ok) ++res.failed;
    ++res.ops;
  }
  res.window_s = NowSeconds() - t0;
  return res;
}

// ---- Workloads ----------------------------------------------------------

void RunWirePoint(const Options& opts, RunRecord* record) {
  std::vector<double> setup_s;
  esd::graph::Graph g;
  std::unique_ptr<FrozenEsdIndex> image;
  std::unique_ptr<WireStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    image.reset();
    const double t0 = NowSeconds();
    {
      ESD_TRACE_SPAN("bench.setup");
      g = esd::gen::LoadStandardDataset("pokec-s").graph;
      image = std::make_unique<FrozenEsdIndex>(
          esd::core::BuildFrozenIndexParallel(g, kBuildThreads));
      stack = std::make_unique<WireStack>(*image);
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  const uint16_t port = stack->server->port();
  const uint64_t live_edges = image->NumRegisteredEdges();

  PointMix mix(StreamSeed(opts.seed, kWireStream));
  std::vector<double> send_us;
  const esd::core::EngineCounters counters0 = image->Counters();
  const esd::net::NetServer::Stats net0 = stack->server->SnapStats();
  const auto window =
      MeasureWindow(opts, "wire-point replies", record, [&](OpRecorder* ops) {
        return WireLoop(port, &mix, kWireConns, kWireDepth, opts.seconds,
                        live_edges, ops, opts.trace ? &send_us : nullptr);
      });
  const LoopResult& loop = window.loop;
  EndToEnd(opts, setup_s, window, record);

  MetricMap* m = &record->metrics;
  if (opts.trace) {
    ServeLayer(*stack->service, 0, m);
    EngineCounterLayer(counters0, image->Counters(), loop.ops, m);
    NetTrafficLayer(net0, stack->server->SnapStats(), loop.ops, send_us, m);
    ProbeRtt(port, opts.seed, live_edges, m, record);
  }

  // Correctness: a deterministic sample of wire answers against the treap
  // engine, over a fresh connection.
  {
    ESD_TRACE_SPAN("bench.check");
    const esd::core::EsdIndex reference = esd::core::BuildIndexClique(g);
    esd::net::BlockingClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, &error)) Die("connect: " + error);
    PointMix check(StreamSeed(opts.seed, kCheckStream));
    for (int i = 0; i < 64; ++i) {
      const Request r = check.Next();
      esd::net::QueryFrame q;
      q.cid = static_cast<uint64_t>(i) + 1;
      q.k = r.k;
      q.tau = r.tau;
      esd::net::QueryResultFrame result;
      bool ok = client.Query(q, &result) && result.cid == q.cid &&
                result.status == static_cast<uint8_t>(ResponseStatus::kOk);
      if (ok) {
        const TopKResult want = reference.Query(r.k, r.tau, true);
        ok = want.size() == result.edges.size();
        for (size_t j = 0; ok && j < want.size(); ++j) {
          ok = want[j].edge.u == result.edges[j].u &&
               want[j].edge.v == result.edges[j].v &&
               want[j].score == result.edges[j].score;
        }
      }
      record->Check(ok, "wire answer equals the treap engine's");
    }
  }
  stack.reset();

  if (opts.trace) {
    PointMix probe(StreamSeed(opts.seed, kProbeStream));
    ProbeEngine(*image, Sample([&] { return probe.Next(); }, 2000), false, m,
                record);
    ProbeBuild(g, m);
    ProbeIo(*image, opts.workdir + "/io", m, record);
    ProbeLive(g, opts.seed, opts.workdir + "/live", m, record);
    ProbeWal(g, opts.seed, opts.workdir + "/wal", m, record);
  }
}

void RunDeepScan(const Options& opts, RunRecord* record) {
  const std::string image_path = opts.workdir + "/deep-scan.esdx";
  std::vector<double> setup_s;
  esd::graph::Graph g;
  std::unique_ptr<FrozenEsdIndex> built;
  std::unique_ptr<FrozenEsdIndex> loaded;
  std::unique_ptr<EsdQueryService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    loaded.reset();
    built.reset();
    std::filesystem::remove(image_path);
    const double t0 = NowSeconds();
    {
      ESD_TRACE_SPAN("bench.setup");
      g = esd::gen::LoadStandardDataset("livejournal-s").graph;
      built = std::make_unique<FrozenEsdIndex>(
          esd::core::BuildFrozenIndexParallel(g, kBuildThreads));
      std::string error;
      if (!esd::core::SaveFrozenIndex(*built, image_path, &error)) {
        Die("save: " + error);
      }
      loaded = std::make_unique<FrozenEsdIndex>();
      if (!esd::core::LoadFrozenIndex(image_path, loaded.get(), &error)) {
        Die("load: " + error);
      }
      service = MakeService(*loaded, kDeepWorkers);
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  const uint64_t live_edges = loaded->NumRegisteredEdges();

  DeepMix mix(StreamSeed(opts.seed, kDeepStream));
  const esd::core::EngineCounters counters0 = loaded->Counters();
  const auto window =
      MeasureWindow(opts, "deep-scan replies", record, [&](OpRecorder* ops) {
        return ServiceLoop(service.get(), [&] { return mix.Next(); },
                           kDeepWindow, opts.seconds, live_edges, ops);
      });
  const LoopResult& loop = window.loop;
  EndToEnd(opts, setup_s, window, record);

  MetricMap* m = &record->metrics;
  if (opts.trace) {
    ServeLayer(*service, 0, m);
    EngineCounterLayer(counters0, loaded->Counters(), loop.ops, m);
  }

  {
    ESD_TRACE_SPAN("bench.check");
    record->Check(*loaded == *built, "loaded image equals the built image");
    const esd::core::EsdIndex reference = esd::core::BuildIndexClique(g);
    DeepMix check(StreamSeed(opts.seed, kCheckStream));
    for (int i = 0; i < 24; ++i) {
      const Request r = check.Next();
      const QueryResponse resp = service->Query(ToQuery(r));
      record->Check(resp.status == ResponseStatus::kOk &&
                        resp.result == reference.Query(r.k, r.tau, true),
                    "deep-scan answer equals the treap engine's");
    }
  }
  service.reset();

  if (opts.trace) {
    DeepMix probe(StreamSeed(opts.seed, kProbeStream));
    ProbeEngine(*loaded, Sample([&] { return probe.Next(); }, 500), false, m,
                record);
    ProbeNet(*loaded, opts.seed, m, record);
    ProbeBuild(g, m);
    ProbeIo(*loaded, opts.workdir + "/io", m, record);
    ProbeLive(g, opts.seed, opts.workdir + "/live", m, record);
    ProbeWal(g, opts.seed, opts.workdir + "/wal", m, record);
  }
}

void RunLiveWrite(const Options& opts, RunRecord* record) {
  const std::string dir = opts.workdir + "/live";
  std::vector<double> setup_s;
  esd::graph::Graph g;
  std::unique_ptr<LiveStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    ResetDir(dir);
    const double t0 = NowSeconds();
    {
      ESD_TRACE_SPAN("bench.setup");
      g = esd::gen::LoadStandardDataset("pokec-s").graph;
      stack = std::make_unique<LiveStack>(g, dir);
    }
    setup_s.push_back(NowSeconds() - t0);
  }

  ChurnStream churn(g, StreamSeed(opts.seed, kChurnStreamId), kChurnLag);
  PointMix reads(StreamSeed(opts.seed, kReadStream));
  uint64_t updates = 0;  // over every window: the replay check needs all
  const auto window =
      MeasureWindow(opts, "live-write batches", record, [&](OpRecorder* ops) {
        LiveLoopResult loop = LiveLoop(stack.get(), &churn, &reads,
                                       opts.seconds, SIZE_MAX, opts.trace, ops);
        updates += loop.updates;
        return loop;
      });
  const LiveLoopResult& loop = window.loop;
  EndToEnd(opts, setup_s, window, record);

  MetricMap* m = &record->metrics;
  if (opts.trace) {
    ServeLayer(*stack->reads, loop.updates, m);
    LiveLayer(stack.get(), loop, *window.ops, m, record);
  }

  // Correctness: after a final refreeze the served answers match a
  // from-scratch build of the graph the stream left behind.
  const esd::live::LiveStats stats = stack->live->Stats();
  record->Check(stats.noops == 0 && stats.inserts + stats.deletes == updates,
                "every churn update changed the graph");
  record->Check(churn.NumPresent() + kChurnLag + 1 >= g.NumEdges() &&
                    churn.NumPresent() <= g.NumEdges(),
                "edge count stays within the churn lag");
  std::shared_ptr<const esd::live::EpochSnapshot> snap;
  {
    ESD_TRACE_SPAN("bench.check");
    record->Check(stack->live->RefreezeNow(), "final refreeze");
    snap = stack->live->CurrentSnapshot();
    record->Check(snap->index.NumRegisteredEdges() == churn.NumPresent(),
                  "final epoch holds the replayed edge set");
    const esd::graph::Graph replayed =
        esd::graph::Graph::FromEdges(g.NumVertices(), churn.PresentEdges());
    const FrozenEsdIndex reference = esd::core::BuildFrozenIndex(replayed);
    PointMix point(StreamSeed(opts.seed, kCheckStream));
    DeepMix deep(StreamSeed(opts.seed, kCheckStream));
    for (int i = 0; i < 48; ++i) {
      const Request r = i % 3 == 2 ? deep.Next() : point.Next();
      const QueryResponse resp = stack->reads->Query(ToQuery(r));
      const TopKResult want = reference.Query(r.k, r.tau, true);
      // Edge ids differ between the live writer and a fresh build, so the
      // answer is compared by score sequence, and every reported edge must
      // exist in the replayed graph with the reported score.
      bool ok = resp.status == ResponseStatus::kOk &&
                esd::core::Scores(resp.result) == esd::core::Scores(want);
      for (const esd::core::ScoredEdge& se : resp.result) {
        if (!ok) break;
        const esd::graph::EdgeId e = replayed.FindEdge(se.edge.u, se.edge.v);
        ok = e != esd::graph::kNoEdge &&
             reference.ScoreOf(e, r.tau) == se.score;
      }
      record->Check(ok, "live answer matches a from-scratch build");
    }
  }
  stack.reset();

  if (opts.trace) {
    PointMix probe(StreamSeed(opts.seed, kProbeStream));
    ProbeEngine(snap->index, Sample([&] { return probe.Next(); }, 2000), true,
                m, record);
    ProbeNet(snap->index, opts.seed, m, record);
    ProbeBuild(g, m);
    ProbeIo(snap->index, opts.workdir + "/io", m, record);
    ProbeWal(g, opts.seed, opts.workdir + "/wal", m, record);
  }
}

void RunIndexBuild(const Options& opts, RunRecord* record) {
  std::vector<double> setup_s;
  esd::graph::Graph g;
  std::unique_ptr<FrozenEsdIndex> first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    first.reset();
    const double t0 = NowSeconds();
    {
      ESD_TRACE_SPAN("bench.setup");
      g = esd::gen::LoadStandardDataset("livejournal-s").graph;
      first = std::make_unique<FrozenEsdIndex>(
          esd::core::BuildFrozenIndexParallel(g, kBuildThreads));
    }
    setup_s.push_back(NowSeconds() - t0);
  }

  const auto window = MeasureWindow(
      opts, "builds (image equals the first)", record,
      [&](OpRecorder* ops) { return BuildLoop(g, *first, opts.seconds, ops); });
  EndToEnd(opts, setup_s, window, record);

  {
    ESD_TRACE_SPAN("bench.check");
    record->Check(*first == esd::core::Freeze(esd::core::BuildIndexClique(g)),
                  "parallel frozen build equals the frozen treap build");
  }

  if (opts.trace) {
    MetricMap* m = &record->metrics;
    DeepMix probe(StreamSeed(opts.seed, kProbeStream));
    ProbeEngine(*first, Sample([&] { return probe.Next(); }, 500), true, m,
                record);
    ProbeServe(*first, opts.seed, m, record);
    ProbeNet(*first, opts.seed, m, record);
    ProbeBuild(g, m);
    ProbeIo(*first, opts.workdir + "/io", m, record);
    ProbeLive(g, opts.seed, opts.workdir + "/live", m, record);
    ProbeWal(g, opts.seed, opts.workdir + "/wal", m, record);
  }
}

}  // namespace perfbench
