// Tests of the benchmark itself: seed determinism of its input streams,
// the churn generator's stationarity, and the statistics of OpRecorder.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "gen/datasets.h"
#include "report.h"
#include "streams.h"

namespace perfbench {
namespace {

constexpr size_t kN = 4096;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

// Byte images of a stream prefix: equal images mean identical streams.
std::string RequestBytes(const std::vector<Request>& requests) {
  std::string out;
  for (const Request& r : requests) {
    AppendPod(&out, r.tau);
    AppendPod(&out, r.k);
  }
  return out;
}

std::string UpdateBytes(const std::vector<esd::live::LiveUpdate>& updates) {
  std::string out;
  for (const esd::live::LiveUpdate& u : updates) {
    AppendPod(&out, static_cast<uint8_t>(u.kind));
    AppendPod(&out, u.u);
    AppendPod(&out, u.v);
  }
  return out;
}

template <typename Mix>
std::string MixBytes(uint64_t seed) {
  Mix mix(seed);
  std::vector<Request> requests(kN);
  for (Request& r : requests) r = mix.Next();
  return RequestBytes(requests);
}

std::string ChurnBytes(const esd::graph::Graph& g, uint64_t seed) {
  ChurnStream churn(g, seed, 64);
  std::vector<esd::live::LiveUpdate> updates;
  churn.NextBatch(kN, &updates);
  return UpdateBytes(updates);
}

const esd::graph::Graph& Pokec() {
  static const esd::graph::Graph g =
      esd::gen::LoadStandardDataset("pokec-s").graph;
  return g;
}

TEST(StreamsTest, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(MixBytes<PointMix>(7), MixBytes<PointMix>(7));
  EXPECT_EQ(MixBytes<DeepMix>(7), MixBytes<DeepMix>(7));
  EXPECT_EQ(ChurnBytes(Pokec(), 7), ChurnBytes(Pokec(), 7));
}

TEST(StreamsTest, DifferentSeedsGiveDifferentStreams) {
  EXPECT_NE(MixBytes<PointMix>(7), MixBytes<PointMix>(8));
  EXPECT_NE(MixBytes<DeepMix>(7), MixBytes<DeepMix>(8));
  EXPECT_NE(ChurnBytes(Pokec(), 7), ChurnBytes(Pokec(), 8));
}

TEST(StreamsTest, StreamSeedsAreDistinctPerConsumer) {
  EXPECT_NE(StreamSeed(1, 1), StreamSeed(1, 2));
  EXPECT_NE(StreamSeed(1, 1), StreamSeed(2, 1));
}

TEST(StreamsTest, MixesStayInTheirRanges) {
  PointMix point(3);
  DeepMix deep(3);
  for (size_t i = 0; i < kN; ++i) {
    const Request p = point.Next();
    EXPECT_GE(p.tau, 1u);
    EXPECT_GE(p.k, 1u);
    EXPECT_LE(p.k, 100u);
    const Request d = deep.Next();
    EXPECT_GE(d.tau, 1u);
    EXPECT_GE(d.k, DeepMix::kDeepMinK);
    EXPECT_LE(d.k, DeepMix::kDeepMaxK);
  }
}

// Replays the churn stream against a plain edge set: every update must
// change the graph, and the edge count must stay within the lag.
TEST(StreamsTest, ChurnHasNoNoOpsAndBoundedEdgeCount) {
  const esd::graph::Graph& g = Pokec();
  constexpr size_t kLag = 512;
  ChurnStream churn(g, 11, kLag);
  std::set<esd::graph::Edge> edges(g.Edges().begin(), g.Edges().end());
  const size_t m = edges.size();
  size_t noops = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  for (size_t i = 0; i < 50000; ++i) {
    const esd::live::LiveUpdate up = churn.Next();
    const esd::graph::Edge e = esd::graph::MakeEdge(up.u, up.v);
    if (up.kind == esd::live::UpdateKind::kInsert) {
      ++inserts;
      noops += edges.insert(e).second ? 0 : 1;
    } else {
      ++deletes;
      noops += edges.erase(e) == 1 ? 0 : 1;
    }
    ASSERT_LE(edges.size(), m);
    ASSERT_GE(edges.size() + kLag + 1, m);
    ASSERT_EQ(edges.size(), churn.NumPresent());
  }
  EXPECT_EQ(noops, 0u);
  // Stationary: after the warm-up the stream alternates delete / insert.
  EXPECT_GE(deletes - inserts, kLag);
  EXPECT_LE(deletes - inserts, kLag + 1);
  const std::set<esd::graph::Edge> present(churn.PresentEdges().begin(),
                                           churn.PresentEdges().end());
  EXPECT_EQ(present, edges);
}

TEST(OpRecorderTest, LatencyQuantilesWithinBucketWidth) {
  OpRecorder rec(10.0);
  for (int i = 1; i <= 1000; ++i) rec.Record(static_cast<double>(i), 0.001 * i);
  EXPECT_EQ(rec.count(), 1000u);
  EXPECT_NEAR(rec.LatencyQuantile(0.5), 500.0, 500.0 * 0.006);
  EXPECT_NEAR(rec.LatencyQuantile(0.99), 990.0, 990.0 * 0.006);
}

TEST(OpRecorderTest, ChunkedRateOfASteadyStream) {
  OpRecorder rec(10.0);
  // 1000 ops per second for 5 s, then nothing: the rate over the first 5 s
  // is 1000/s however the window is cut.
  for (int i = 1; i <= 5000; ++i) rec.Record(1.0, 0.001 * i);
  EXPECT_NEAR(rec.ChunkedRate(5.0), 1000.0, 1.0);
}

TEST(OpRecorderTest, ChunkedRateIgnoresAShortStall) {
  OpRecorder rec(30.0);
  // 2000 ops/s for 10 s with one 1-second stall: the median chunk still
  // reads the steady rate, while the mean over the window would not.
  double t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += 0.0005;
    if (i == 10000) t += 1.0;
    rec.Record(1.0, t);
  }
  EXPECT_NEAR(rec.ChunkedRate(t), 2000.0, 2.0);
}

TEST(OpRecorderTest, OpsAfterTheWindowAreNotCounted) {
  OpRecorder rec(10.0);
  for (int i = 1; i <= 4000; ++i) rec.Record(1.0, 0.001 * i);
  // The window closes at 2 s; the remaining 2000 ops are the drain.
  EXPECT_NEAR(rec.ChunkedRate(2.0), 1000.0, 1.0);
}

}  // namespace
}  // namespace perfbench
