// FrozenEsdIndex: the read-optimized serving layer must be observationally
// identical to the treap index it images — on every query, for every
// (k, tau), including the documented zero-padding order — and must
// round-trip losslessly through Freeze/Thaw and the index_io file format.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/binary_format.h"
#include "core/dynamic_index.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/naive_topk.h"
#include "core/parallel_builder.h"
#include "core/query_engine.h"
#include "core/scorer.h"
#include "gen/barabasi_albert.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd {
namespace {

using core::EsdIndex;
using core::FrozenEsdIndex;
using core::TopKResult;

/// ~50 small random graphs: half ER (sparse to dense), half BA (hubby).
std::vector<graph::Graph> RandomGraphs() {
  std::vector<graph::Graph> out;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    uint32_t n = 8 + static_cast<uint32_t>(seed) * 2;
    out.push_back(gen::ErdosRenyiGnm(n, 2 + seed * n / 4, seed));
  }
  for (uint64_t seed = 0; seed < 25; ++seed) {
    uint32_t attach = 1 + static_cast<uint32_t>(seed % 4);
    out.push_back(gen::BarabasiAlbert(10 + static_cast<uint32_t>(seed),
                                      attach, 1000 + seed));
  }
  return out;
}

/// Exhaustive observational equality between the treap index and its frozen
/// image: every read of the EsdQueryEngine interface, over every relevant
/// tau and a spread of k / min_score / limit values.
void ExpectEngineParity(const EsdIndex& index, const FrozenEsdIndex& frozen) {
  const uint32_t m = static_cast<uint32_t>(index.NumRegisteredEdges());
  ASSERT_EQ(frozen.NumRegisteredEdges(), index.NumRegisteredEdges());
  ASSERT_EQ(frozen.EdgeSlotCount(), index.EdgeSlotCount());
  EXPECT_EQ(frozen.DistinctSizes(), index.DistinctSizes());

  std::vector<uint32_t> sizes = index.DistinctSizes();
  const uint32_t max_size = sizes.empty() ? 0 : sizes.back();
  for (uint32_t tau = 0; tau <= max_size + 2; ++tau) {
    for (uint32_t k : {0u, 1u, 3u, m / 2, m, m + 4}) {
      EXPECT_EQ(frozen.Query(k, tau), index.Query(k, tau))
          << "k=" << k << " tau=" << tau;
      EXPECT_EQ(frozen.Query(k, tau, false), index.Query(k, tau, false))
          << "k=" << k << " tau=" << tau << " (no padding)";
    }
    for (uint32_t min_score : {0u, 1u, 2u, 5u}) {
      EXPECT_EQ(frozen.CountWithScoreAtLeast(tau, min_score),
                index.CountWithScoreAtLeast(tau, min_score))
          << "tau=" << tau << " min_score=" << min_score;
      for (size_t limit : {size_t{0}, size_t{3}}) {
        EXPECT_EQ(frozen.QueryWithScoreAtLeast(tau, min_score, limit),
                  index.QueryWithScoreAtLeast(tau, min_score, limit))
            << "tau=" << tau << " min_score=" << min_score;
      }
    }
    for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
      if (!index.IsLive(e)) continue;
      EXPECT_EQ(frozen.ScoreOf(e, tau), index.ScoreOf(e, tau))
          << "e=" << e << " tau=" << tau;
    }
  }
}

TEST(FrozenIndexTest, ParityOnRandomGraphs) {
  for (const graph::Graph& g : RandomGraphs()) {
    EsdIndex index = core::BuildIndexClique(g);
    FrozenEsdIndex frozen = core::Freeze(index);
    ExpectEngineParity(index, frozen);
  }
}

TEST(FrozenIndexTest, FreezeThawFreezeIsIdentity) {
  for (const graph::Graph& g : RandomGraphs()) {
    EsdIndex index = core::BuildIndexClique(g);
    FrozenEsdIndex frozen = core::Freeze(index);
    EsdIndex thawed = core::Thaw(frozen);
    test::ExpectIndexesEqual(index, thawed);
    EXPECT_TRUE(core::Freeze(thawed) == frozen);
  }
}

TEST(FrozenIndexTest, BuilderFrozenPathsMatchFreeze) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    graph::Graph g = gen::ErdosRenyiGnm(40, 160, seed);
    FrozenEsdIndex want = core::Freeze(core::BuildIndexClique(g));
    EXPECT_TRUE(core::BuildFrozenIndex(g) == want);
    EXPECT_TRUE(core::BuildFrozenIndexParallel(g, 4) == want);
    EXPECT_TRUE(core::BuildFrozenIndexParallel(
                    g, 3, core::ParallelMode::kVertexParallel) == want);
  }
}

TEST(FrozenIndexTest, FreedSlotsRoundTrip) {
  graph::Graph g = gen::BarabasiAlbert(40, 3, 5);
  EsdIndex index = core::BuildIndexClique(g);
  // Free a few slots, as the dynamic maintenance path would.
  for (graph::EdgeId e : {2u, 7u, 20u}) {
    index.SetEdgeSizes(e, {});
    index.UnregisterEdge(e);
  }
  FrozenEsdIndex frozen = core::Freeze(index);
  EXPECT_EQ(frozen.NumRegisteredEdges(), index.NumRegisteredEdges());
  for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
    EXPECT_EQ(frozen.IsLive(e), index.IsLive(e));
  }
  ExpectEngineParity(index, frozen);

  // Thaw reproduces the exact slot layout, and re-freezing is an identity.
  EsdIndex thawed = core::Thaw(frozen);
  test::ExpectIndexesEqual(index, thawed);
  for (graph::EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
    EXPECT_EQ(thawed.IsLive(e), index.IsLive(e));
  }
  EXPECT_TRUE(core::Freeze(thawed) == frozen);
}

TEST(FrozenIndexTest, PaddingOrderIsAscendingEdgeId) {
  // A star has zero structural diversity everywhere at tau >= 2, so a
  // padded query is all padding: the documented order is ascending edge id.
  graph::Graph g;
  graph::GraphBuilder b;
  for (uint32_t i = 1; i <= 6; ++i) b.AddEdge(0, i);
  g = b.Build();
  EsdIndex index = core::BuildIndexClique(g);
  FrozenEsdIndex frozen = core::Freeze(index);
  TopKResult got = frozen.Query(4, 3);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, 0u);
    EXPECT_EQ(got[i].edge, index.EdgeAt(static_cast<graph::EdgeId>(i)));
  }
  EXPECT_EQ(got, index.Query(4, 3));
}

/// Padding from its definition: the slab's first min(k, |slab|) entries,
/// then live edges not among them in ascending id with score 0, up to k.
/// Reads only the slab list and the live mask, never the multisets the
/// engines' membership test uses.
TopKResult ReferencePadded(const FrozenEsdIndex& frozen, size_t slab,
                           uint32_t k) {
  TopKResult out;
  std::vector<uint8_t> reported(frozen.EdgeSlotCount(), 0);
  if (slab != FrozenEsdIndex::kNoSlab) {
    for (const FrozenEsdIndex::Entry& entry : frozen.ListAt(slab)) {
      if (out.size() >= k) break;
      out.push_back(core::ScoredEdge{frozen.EdgeAt(entry.e), entry.score});
      reported[entry.e] = 1;
    }
  }
  for (graph::EdgeId e = 0; e < frozen.EdgeSlotCount() && out.size() < k;
       ++e) {
    if (frozen.IsLive(e) && !reported[e]) {
      out.push_back(core::ScoredEdge{frozen.EdgeAt(e), 0});
    }
  }
  return out;
}

/// Every slab plus kNoSlab, k at 1, |slab|, |slab|+1 and around the live
/// count: the split scan + PadQueryResult, the padded QueryAtSlab, Query,
/// and the treap engine all equal the reference.
void ExpectPaddingMatchesReference(const EsdIndex& treap,
                                   const FrozenEsdIndex& frozen) {
  const uint32_t live = static_cast<uint32_t>(frozen.NumRegisteredEdges());
  const std::vector<uint32_t> sizes = frozen.DistinctSizes();
  std::vector<std::pair<size_t, uint32_t>> slab_taus;  // (slab, tau)
  for (size_t s = 0; s < sizes.size(); ++s) slab_taus.emplace_back(s, sizes[s]);
  const uint32_t above = sizes.empty() ? 1 : sizes.back() + 1;
  slab_taus.emplace_back(FrozenEsdIndex::kNoSlab, above);
  for (const auto& [slab, tau] : slab_taus) {
    ASSERT_EQ(frozen.FindSlab(tau), slab);
    const uint32_t len =
        slab == FrozenEsdIndex::kNoSlab
            ? 0
            : static_cast<uint32_t>(frozen.ListAt(slab).size());
    for (uint32_t k : {1u, len, len + 1, len + 2, live, live + 1, live + 7}) {
      if (k == 0) continue;
      SCOPED_TRACE("tau=" + std::to_string(tau) + " k=" + std::to_string(k));
      const TopKResult want = ReferencePadded(frozen, slab, k);
      ASSERT_EQ(want.size(), std::min(k, live));
      TopKResult split = frozen.QueryAtSlab(slab, k, false);
      frozen.PadQueryResult(slab, k, &split);
      EXPECT_EQ(split, want);
      EXPECT_EQ(frozen.QueryAtSlab(slab, k, true), want);
      EXPECT_EQ(frozen.Query(k, tau), want);
      EXPECT_EQ(treap.Query(k, tau), want);
    }
  }
}

TEST(FrozenIndexTest, PaddingMatchesDefinitionAfterChurn) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() /
       ("esd_padding_property_" + std::to_string(::getpid()) + ".esdx"))
          .string();
  const graph::Graph g = gen::BarabasiAlbert(60, 3, 21);
  for (const core::DiversityScorer* scorer :
       {&core::EsdScorer(), &core::TrussScorer(),
        &core::EgoBetweennessScorer()}) {
    SCOPED_TRACE(std::string(scorer->Name()));
    core::DynamicEsdIndex dyn(g, *scorer);
    // Delete ten edges, then insert four new ones: the inserts reuse freed
    // slots, six slots stay freed.
    for (graph::EdgeId e = 0; e < 50; e += 5) {
      const graph::Edge uv = g.EdgeAt(e);
      ASSERT_TRUE(dyn.DeleteEdge(uv.u, uv.v));
    }
    uint32_t inserted = 0;
    for (graph::VertexId u = 40; u < 60 && inserted < 4; ++u) {
      if (dyn.InsertEdge(u, u - 37)) ++inserted;
    }
    ASSERT_EQ(inserted, 4u);

    const EsdIndex& treap = dyn.Index();
    const FrozenEsdIndex frozen = core::Freeze(treap);
    size_t freed = 0, empty_live = 0;
    for (graph::EdgeId e = 0; e < frozen.EdgeSlotCount(); ++e) {
      if (!frozen.IsLive(e)) ++freed;
      if (frozen.IsLive(e) && frozen.EdgeSizes(e).empty()) ++empty_live;
    }
    ASSERT_EQ(freed, 6u);
    ASSERT_GT(empty_live, 0u);  // live edges that every slab omits
    ExpectPaddingMatchesReference(treap, frozen);

    std::string error;
    ASSERT_TRUE(core::SaveFrozenIndex(frozen, path, &error)) << error;
    FrozenEsdIndex loaded;
    ASSERT_TRUE(core::LoadFrozenIndex(path, &loaded, &error)) << error;
    ASSERT_TRUE(loaded == frozen);
    ExpectPaddingMatchesReference(treap, loaded);
  }
  fs::remove(path);
}

TEST(FrozenIndexTest, PadEdgesWalkedCounterIsExact) {
  // Triangle 0-1-2 with the path 2-3-4 hanging off it. The triangle edges
  // (ids 0..2) each have ego-network {third vertex}, C_e = {1}; the path
  // edges (ids 3, 4) have no common neighbors, C_e = {}. So C = {1} and
  // the one slab H(1) holds edges 0..2.
  graph::GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const graph::Graph g = b.Build();
  const EsdIndex treap = core::BuildIndexClique(g);
  const FrozenEsdIndex frozen = core::Freeze(treap);
  ASSERT_EQ(frozen.DistinctSizes(), std::vector<uint32_t>{1});
  for (graph::EdgeId e = 0; e < 5; ++e) {
    EXPECT_EQ(frozen.EdgeSizes(e).size(), e < 3 ? 1u : 0u) << e;
  }

  struct Case {
    uint32_t k, tau;
    uint64_t walked;  // edge ids the padding walk visits
  };
  const Case cases[] = {
      {3, 1, 0},   // the slab alone answers: no walk
      {4, 1, 4},   // skips 0..2, takes 3, full
      {5, 1, 5},   // skips 0..2, takes 3 and 4
      {10, 1, 5},  // walks every slot, still short of k
      {2, 2, 2},   // no slab serves tau 2: takes 0 and 1
  };
  for (const core::EsdQueryEngine* engine :
       {static_cast<const core::EsdQueryEngine*>(&frozen),
        static_cast<const core::EsdQueryEngine*>(&treap)}) {
    for (const Case& c : cases) {
      const uint64_t before = engine->Counters().pad_edges_walked;
      (void)engine->Query(c.k, c.tau);
      EXPECT_EQ(engine->Counters().pad_edges_walked - before, c.walked)
          << engine->EngineName() << " k=" << c.k << " tau=" << c.tau;
    }
    // Unpadded queries never walk.
    const uint64_t before = engine->Counters().pad_edges_walked;
    (void)engine->Query(10, 2, false);
    EXPECT_EQ(engine->Counters().pad_edges_walked, before);
  }
}

TEST(FrozenIndexTest, QueriesAgainstNaiveGroundTruth) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    graph::Graph g = gen::ErdosRenyiGnm(30, 120, seed);
    FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
    for (uint32_t tau : {2u, 3u}) {
      EXPECT_EQ(core::Scores(frozen.Query(10, tau)),
                test::NaiveTopScores(g, 10, tau));
    }
  }
}

TEST(FrozenIndexTest, EmptyAndDefaultImages) {
  FrozenEsdIndex def;
  EXPECT_EQ(def.Query(5, 2), TopKResult{});
  EXPECT_EQ(def.CountWithScoreAtLeast(2, 1), 0u);
  EXPECT_EQ(def.MemoryBytes(), 0u);

  FrozenEsdIndex empty = FrozenEsdIndex::FromEdgeSizes({}, {});
  EXPECT_EQ(empty.Query(5, 2), TopKResult{});
  EXPECT_EQ(empty.EdgeSlotCount(), 0u);

  // Even a default image (whose offset tables are empty rather than the
  // canonical single zero) serializes to a loadable file, and loading
  // normalizes it to the canonical empty image.
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(def, buf, &error)) << error;
  FrozenEsdIndex back;
  ASSERT_TRUE(core::DeserializeFrozenIndex(buf, &back, &error)) << error;
  EXPECT_TRUE(back == empty);
}

TEST(FrozenIndexTest, AdoptRejectsMalformedParts) {
  graph::Graph g = gen::ErdosRenyiGnm(20, 60, 9);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  auto parts_of = [&frozen] {
    FrozenEsdIndex::Parts p;
    p.edges.assign(frozen.Edges().begin(), frozen.Edges().end());
    p.live.assign(frozen.LiveMask().begin(), frozen.LiveMask().end());
    p.size_offsets.assign(frozen.SizeOffsets().begin(),
                          frozen.SizeOffsets().end());
    p.size_pool.assign(frozen.SizePool().begin(), frozen.SizePool().end());
    p.sizes.assign(frozen.Sizes().begin(), frozen.Sizes().end());
    p.offsets.assign(frozen.SlabOffsets().begin(),
                     frozen.SlabOffsets().end());
    p.entries.assign(frozen.Entries().begin(), frozen.Entries().end());
    return p;
  };
  {
    FrozenEsdIndex out;
    std::string error;
    ASSERT_TRUE(FrozenEsdIndex::Adopt(parts_of(), &out, &error)) << error;
    EXPECT_TRUE(out == frozen);
  }
  auto expect_rejected = [](FrozenEsdIndex::Parts p) {
    FrozenEsdIndex out;
    std::string error;
    EXPECT_FALSE(FrozenEsdIndex::Adopt(std::move(p), &out, &error));
    EXPECT_FALSE(error.empty());
  };
  {
    auto p = parts_of();
    p.live.pop_back();  // live mask shorter than the edge table
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    p.offsets.back() += 1;  // slab offsets no longer cover entries exactly
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    ASSERT_FALSE(p.entries.empty());
    p.entries[0].score += 1;  // score contradicts the stored multiset
    expect_rejected(std::move(p));
  }
  {
    auto p = parts_of();
    ASSERT_FALSE(p.sizes.empty());
    p.sizes.pop_back();  // C no longer matches the pool's distinct sizes
    expect_rejected(std::move(p));
  }
}

// The raw arrays of `frozen`, as Adopt takes them.
FrozenEsdIndex::Parts PartsOf(const FrozenEsdIndex& frozen) {
  FrozenEsdIndex::Parts p;
  p.scorer = frozen.Scorer();
  p.edges.assign(frozen.Edges().begin(), frozen.Edges().end());
  p.live.assign(frozen.LiveMask().begin(), frozen.LiveMask().end());
  p.size_offsets.assign(frozen.SizeOffsets().begin(),
                        frozen.SizeOffsets().end());
  p.size_pool.assign(frozen.SizePool().begin(), frozen.SizePool().end());
  p.sizes.assign(frozen.Sizes().begin(), frozen.Sizes().end());
  p.offsets.assign(frozen.SlabOffsets().begin(), frozen.SlabOffsets().end());
  p.entries.assign(frozen.Entries().begin(), frozen.Entries().end());
  return p;
}

// The slab build by definition: H(c) holds every live edge whose largest
// value reaches c, scored |{x in C_e : x >= c}| and put in canonical order
// by a plain std::sort.
FrozenEsdIndex::Parts SortReferenceParts(
    const std::vector<graph::Edge>& edges,
    std::vector<std::vector<uint32_t>> sizes, std::vector<uint8_t> live,
    core::ScorerKind scorer) {
  FrozenEsdIndex::Parts p;
  p.scorer = scorer;
  p.edges = edges;
  p.live = live.empty() ? std::vector<uint8_t>(edges.size(), 1) : live;
  p.size_offsets.push_back(0);
  for (size_t e = 0; e < edges.size(); ++e) {
    if (!p.live[e]) sizes[e].clear();
    p.size_pool.insert(p.size_pool.end(), sizes[e].begin(), sizes[e].end());
    p.size_offsets.push_back(p.size_pool.size());
  }
  p.sizes = p.size_pool;
  std::sort(p.sizes.begin(), p.sizes.end());
  p.sizes.erase(std::unique(p.sizes.begin(), p.sizes.end()), p.sizes.end());
  p.offsets.push_back(0);
  for (uint32_t c : p.sizes) {
    std::vector<FrozenEsdIndex::Entry> slab;
    for (size_t e = 0; e < edges.size(); ++e) {
      const auto score = static_cast<uint32_t>(
          std::count_if(sizes[e].begin(), sizes[e].end(),
                        [c](uint32_t x) { return x >= c; }));
      if (score > 0) {
        slab.push_back({score, static_cast<graph::EdgeId>(e)});
      }
    }
    std::sort(slab.begin(), slab.end(),
              [](const FrozenEsdIndex::Entry& a,
                 const FrozenEsdIndex::Entry& b) {
                return a.score != b.score ? a.score > b.score : a.e < b.e;
              });
    p.entries.insert(p.entries.end(), slab.begin(), slab.end());
    p.offsets.push_back(p.entries.size());
  }
  return p;
}

// FromEdgeSizes equals the sort reference and passes Adopt's validation.
void ExpectSlabBuildMatchesReference(
    const std::vector<graph::Edge>& edges,
    const std::vector<std::vector<uint32_t>>& sizes,
    const std::vector<uint8_t>& live, const std::string& what,
    core::ScorerKind scorer = core::ScorerKind::kEsd) {
  const FrozenEsdIndex built =
      FrozenEsdIndex::FromEdgeSizes(edges, sizes, live, scorer);
  FrozenEsdIndex want;
  std::string error;
  ASSERT_TRUE(FrozenEsdIndex::Adopt(
      SortReferenceParts(edges, sizes, live, scorer), &want, &error))
      << what << ": " << error;
  EXPECT_TRUE(built == want) << what;
  FrozenEsdIndex adopted;
  EXPECT_TRUE(FrozenEsdIndex::Adopt(PartsOf(built), &adopted, &error))
      << what << ": " << error;
  EXPECT_TRUE(adopted == built) << what;
}

TEST(FrozenIndexTest, CountingSortSlabBuildMatchesSortReference) {
  util::Rng rng(0x51AB);
  auto edges_of = [](size_t n) {
    std::vector<graph::Edge> edges;
    for (graph::VertexId e = 0; e < n; ++e) edges.push_back({e, e + 1});
    return edges;
  };
  // Random multisets over a small value range, so scores tie often, with
  // empty multisets and freed slots mixed in. A freed slot's multiset is
  // dropped even when the caller passes one.
  for (int round = 0; round < 60; ++round) {
    const size_t n = rng.NextBounded(40);
    const uint32_t max_value = 1 + static_cast<uint32_t>(rng.NextBounded(9));
    std::vector<std::vector<uint32_t>> sizes(n);
    std::vector<uint8_t> live;
    if (round % 2 == 1) live.assign(n, 1);
    for (size_t e = 0; e < n; ++e) {
      const size_t len = rng.NextBounded(6);
      for (size_t i = 0; i < len; ++i) {
        sizes[e].push_back(1 + static_cast<uint32_t>(rng.NextBounded(max_value)));
      }
      std::sort(sizes[e].begin(), sizes[e].end());
      if (!live.empty() && rng.NextBounded(5) == 0) live[e] = 0;
    }
    ExpectSlabBuildMatchesReference(edges_of(n), sizes, live,
                                    "round " + std::to_string(round));
  }
  // No edges; edges with only empty multisets (C is empty); every slot
  // freed.
  ExpectSlabBuildMatchesReference({}, {}, {}, "no edges");
  ExpectSlabBuildMatchesReference(edges_of(5), std::vector<std::vector<uint32_t>>(5),
                                  {}, "all empty");
  ExpectSlabBuildMatchesReference(edges_of(3), {{1, 2}, {2}, {4}},
                                  {0, 0, 0}, "all freed");
  // One value everywhere: a single slab, every score a tie broken by id.
  ExpectSlabBuildMatchesReference(
      edges_of(6), {{3}, {3, 3}, {}, {3}, {3, 3, 3}, {3, 3}}, {},
      "single slab");
  // Values far above the pool length take the sorting path for C.
  ExpectSlabBuildMatchesReference(
      edges_of(4), {{7, 1000000}, {1000000}, {5, 5, 4000000000u}, {7}}, {},
      "large values", core::ScorerKind::kEgoBetweenness);
}

TEST(FrozenIndexTest, ParallelBuildEqualsFrozenTreapBuildOnStandardDatasets) {
  for (const std::string& name : gen::StandardDatasetNames()) {
    const graph::Graph g = gen::LoadStandardDataset(name, 0.2).graph;
    const FrozenEsdIndex want = core::Freeze(core::BuildIndexClique(g));
    EXPECT_TRUE(core::BuildFrozenIndex(g) == want) << name;
    for (unsigned threads : {1u, 2u, 4u}) {
      EXPECT_TRUE(core::BuildFrozenIndexParallel(g, threads) == want)
          << name << " threads=" << threads;
    }
  }
}

TEST(FrozenIndexTest, EnginesReportIdenticalScanCounters) {
  // The triangle-plus-path graph of PadEdgesWalkedCounterIsExact, and a
  // random graph with several slabs.
  graph::GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const graph::Graph path = b.Build();
  for (const graph::Graph& g : {path, gen::ErdosRenyiGnm(40, 200, 5)}) {
    const EsdIndex treap = core::BuildIndexClique(g);
    const FrozenEsdIndex frozen = core::Freeze(treap);
    const uint32_t m = static_cast<uint32_t>(g.NumEdges());
    for (uint32_t tau : {1u, 2u, 3u, 50u}) {
      for (uint32_t k : {1u, 3u, m / 2, m, m + 5}) {
        for (bool pad : {true, false}) {
          const core::EngineCounters t0 = treap.Counters();
          const core::EngineCounters f0 = frozen.Counters();
          EXPECT_EQ(treap.Query(k, tau, pad), frozen.Query(k, tau, pad));
          const core::EngineCounters t1 = treap.Counters();
          const core::EngineCounters f1 = frozen.Counters();
          EXPECT_EQ(t1.entries_scanned - t0.entries_scanned,
                    f1.entries_scanned - f0.entries_scanned)
              << "k=" << k << " tau=" << tau << " pad=" << pad;
          EXPECT_EQ(t1.pad_edges_walked - t0.pad_edges_walked,
                    f1.pad_edges_walked - f0.pad_edges_walked)
              << "k=" << k << " tau=" << tau << " pad=" << pad;
        }
      }
      for (uint32_t min_score : {0u, 1u, 2u, 5u}) {
        for (size_t limit : {size_t{0}, size_t{3}}) {
          const core::EngineCounters t0 = treap.Counters();
          const core::EngineCounters f0 = frozen.Counters();
          EXPECT_EQ(treap.CountWithScoreAtLeast(tau, min_score),
                    frozen.CountWithScoreAtLeast(tau, min_score));
          EXPECT_EQ(treap.QueryWithScoreAtLeast(tau, min_score, limit),
                    frozen.QueryWithScoreAtLeast(tau, min_score, limit));
          const core::EngineCounters t1 = treap.Counters();
          const core::EngineCounters f1 = frozen.Counters();
          EXPECT_EQ(t1.entries_scanned - t0.entries_scanned,
                    f1.entries_scanned - f0.entries_scanned)
              << "tau=" << tau << " min_score=" << min_score
              << " limit=" << limit;
          EXPECT_EQ(t1.slab_searches - t0.slab_searches,
                    f1.slab_searches - f0.slab_searches)
              << "tau=" << tau << " min_score=" << min_score
              << " limit=" << limit;
        }
      }
    }
  }
  // At tau=2, min_score=1 the random graph's threshold calls read 91 slab
  // entries and make two slab searches in both engines.
  {
    const EsdIndex treap =
        core::BuildIndexClique(gen::ErdosRenyiGnm(40, 200, 5));
    const FrozenEsdIndex frozen = core::Freeze(treap);
    for (const core::EsdQueryEngine* engine :
         {static_cast<const core::EsdQueryEngine*>(&treap),
          static_cast<const core::EsdQueryEngine*>(&frozen)}) {
      const core::EngineCounters c0 = engine->Counters();
      EXPECT_EQ(engine->QueryWithScoreAtLeast(2, 1).size(), 91u);
      EXPECT_EQ(engine->CountWithScoreAtLeast(2, 1), 91u);
      const core::EngineCounters c1 = engine->Counters();
      EXPECT_EQ(c1.entries_scanned - c0.entries_scanned, 91u)
          << engine->EngineName();
      EXPECT_EQ(c1.slab_searches - c0.slab_searches, 2u)
          << engine->EngineName();
    }
  }
  // On the 5-edge graph, Query(10, 1) scans the 3-entry slab H(1) and pads
  // the other two edges: 3 entries scanned in both engines.
  const EsdIndex treap = core::BuildIndexClique(path);
  const uint64_t before = treap.Counters().entries_scanned;
  EXPECT_EQ(treap.Query(10, 1).size(), 5u);
  EXPECT_EQ(treap.Counters().entries_scanned - before, 3u);
}

TEST(IndexIoV2Test, FrozenRoundTripV2) {
  for (uint64_t seed : {4u, 8u}) {
    graph::Graph g = gen::BarabasiAlbert(40, 3, seed);
    FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
    std::stringstream buf;
    std::string error;
    ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
    FrozenEsdIndex back;
    ASSERT_TRUE(core::DeserializeFrozenIndex(buf, &back, &error)) << error;
    EXPECT_TRUE(back == frozen);
  }
}

TEST(IndexIoV2Test, V2FileLoadsIntoBothEngines) {
  // One file format for both engines: the treap engine saves Freeze(index),
  // which is byte-identical to the frozen builder's image, and thaws what
  // it loads.
  graph::Graph g = gen::ErdosRenyiGnm(35, 140, 7);
  const EsdIndex built = core::BuildIndexClique(g);
  const FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream from_treap, from_frozen;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(core::Freeze(built), from_treap,
                                         &error))
      << error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, from_frozen, &error))
      << error;
  EXPECT_EQ(from_treap.str(), from_frozen.str());

  FrozenEsdIndex as_frozen;
  ASSERT_TRUE(core::DeserializeFrozenIndex(from_treap, &as_frozen, &error))
      << error;
  const EsdIndex as_treap = core::Thaw(as_frozen);

  EXPECT_TRUE(as_frozen == frozen);
  test::ExpectIndexesEqual(as_treap, built);
  ExpectEngineParity(as_treap, as_frozen);
}

/// A well-formed index file in a retired layout, checksum intact:
/// version 1 = per-slot records {u, v, live, size count, sizes}, version 2
/// = the frozen arrays without a scorer id, version 3 = version 1 with a
/// leading scorer id.
std::string RetiredIndexFile(const FrozenEsdIndex& frozen, uint32_t version) {
  std::stringstream out;
  out.write("ESDX", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  core::BinaryWriter w(out);
  if (version == 2) {
    // The version-4 body minus its scorer id (bytes 8..11) and checksum.
    std::stringstream v4;
    EXPECT_TRUE(core::SerializeFrozenIndex(frozen, v4, nullptr));
    const std::string body = v4.str();
    w.PutRaw(body.data() + 12, body.size() - 12 - 8);
  } else {
    if (version == 3) w.Put(static_cast<uint32_t>(frozen.Scorer()));
    w.Put(static_cast<uint64_t>(frozen.EdgeSlotCount()));
    for (graph::EdgeId e = 0; e < frozen.EdgeSlotCount(); ++e) {
      w.Put(frozen.EdgeAt(e).u);
      w.Put(frozen.EdgeAt(e).v);
      w.Put(static_cast<uint8_t>(frozen.IsLive(e) ? 1 : 0));
      const std::span<const uint32_t> sizes = frozen.EdgeSizes(e);
      w.Put(static_cast<uint32_t>(sizes.size()));
      for (uint32_t size : sizes) w.Put(size);
    }
  }
  const uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out.str();
}

TEST(IndexIoV2Test, CorruptV2Rejected) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 13);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();

  {  // Bad magic.
    std::string bad = good;
    bad[0] = 'X';
    std::stringstream in(bad);
    FrozenEsdIndex out;
    EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error));
  }
  {  // Unknown version.
    std::string bad = good;
    bad[4] = 99;
    std::stringstream in(bad);
    FrozenEsdIndex out;
    EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error));
  }
  // Well-formed files of the retired versions 1-3 are refused too: only
  // version 4 is read.
  for (const uint32_t version : {1u, 2u, 3u}) {
    std::stringstream in(RetiredIndexFile(frozen, version));
    FrozenEsdIndex out;
    const core::IndexIoResult res =
        core::DeserializeFrozenIndex(in, &out, core::ScorerKind::kEsd);
    EXPECT_EQ(res.status, core::IndexIoStatus::kFormatError)
        << "version " << version;
  }
  {  // Flipped payload byte: the checksum (or Adopt) must catch it.
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x20;
    std::stringstream in(bad);
    FrozenEsdIndex out;
    EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error));
  }
  {  // Truncation.
    std::string bad = good.substr(0, good.size() - 9);
    std::stringstream in(bad);
    FrozenEsdIndex out;
    EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error));
  }
}

/// Byte offsets (into a serialized frozen stream) of each array's u64
/// element count, derived from the actual array lengths: 4 magic + 4
/// version + 4 scorer id, then per array an 8-byte count followed by the
/// payload.
std::vector<size_t> V2CountOffsets(const FrozenEsdIndex& frozen) {
  std::vector<size_t> offsets;
  size_t pos = 12;
  const size_t payload_bytes[] = {
      frozen.Edges().size() * sizeof(graph::Edge),
      frozen.LiveMask().size() * sizeof(uint8_t),
      std::max<size_t>(frozen.SizeOffsets().size(), 1) * sizeof(uint64_t),
      frozen.SizePool().size() * sizeof(uint32_t),
      frozen.Sizes().size() * sizeof(uint32_t),
      std::max<size_t>(frozen.SlabOffsets().size(), 1) * sizeof(uint64_t),
      frozen.Entries().size() * sizeof(FrozenEsdIndex::Entry),
  };
  for (size_t bytes : payload_bytes) {
    offsets.push_back(pos);
    pos += sizeof(uint64_t) + bytes;
  }
  return offsets;
}

TEST(IndexIoV2Test, OversizedCountsRejectedWithoutAllocation) {
  // A corrupt or hostile index file may claim any 64-bit element count; the
  // loader must reject it with a parse error before trusting it with an
  // allocation. Fuzz every array's count slot with a spread of oversized
  // values (the driver acceptance case: no multi-GB resize, no n*sizeof(T)
  // overflow — just a clean error).
  graph::Graph g = gen::ErdosRenyiGnm(12, 30, 21);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();

  const uint64_t hostile_counts[] = {
      uint64_t{1} << 61,                      // ~exabyte resize request
      std::numeric_limits<uint64_t>::max(),   // n * sizeof(T) overflows
      static_cast<uint64_t>(good.size()) + 1  // just past the real stream
  };
  for (size_t offset : V2CountOffsets(frozen)) {
    for (uint64_t n : hostile_counts) {
      std::string bad = good;
      std::memcpy(bad.data() + offset, &n, sizeof(n));
      std::stringstream in(bad);
      FrozenEsdIndex out;
      error.clear();
      EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error))
          << "offset=" << offset << " n=" << n;
      EXPECT_NE(error.find("exceeds remaining bytes"), std::string::npos)
          << "offset=" << offset << " n=" << n << " error=" << error;
    }
  }
}

TEST(IndexIoV2Test, TruncatedBlockRejected) {
  // Cut the stream mid-payload (not merely at the tail): the length prefix
  // promises more elements than the stream holds.
  graph::Graph g = gen::ErdosRenyiGnm(12, 30, 22);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  ASSERT_FALSE(frozen.Edges().empty());
  std::stringstream buf;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, buf, &error)) << error;
  const std::string good = buf.str();

  // End inside the first element of the edges array: header (8) + scorer
  // (4) + count (8) + half an edge.
  for (size_t keep : {size_t{20}, size_t{20 + sizeof(graph::Edge) / 2},
                      good.size() / 2}) {
    std::stringstream in(good.substr(0, keep));
    FrozenEsdIndex out;
    error.clear();
    EXPECT_FALSE(core::DeserializeFrozenIndex(in, &out, &error)) << keep;
    EXPECT_FALSE(error.empty());
  }
}

TEST(QueryEngineTest, FactoryCoversAllEnginesWithEqualAnswers) {
  graph::Graph g = gen::ErdosRenyiGnm(30, 110, 17);
  TopKResult want;  // treap's answer is the reference
  for (const std::string& name : core::QueryEngineNames()) {
    std::string error;
    std::unique_ptr<core::EsdQueryEngine> engine =
        core::BuildQueryEngine(g, name, &error);
    ASSERT_NE(engine, nullptr) << error;
    EXPECT_EQ(engine->EngineName(), name);
    TopKResult got = engine->Query(8, 2);
    if (name == "treap") want = got;
    if (name == "treap" || name == "frozen" || name == "dynamic") {
      // Index-backed engines agree exactly, padding included.
      EXPECT_EQ(got, want) << name;
    } else {
      // Online engines may break score ties differently; the score vector
      // is still the same.
      EXPECT_EQ(core::Scores(got), core::Scores(want)) << name;
    }
    EXPECT_EQ(engine->CountWithScoreAtLeast(2, 1),
              core::BuildQueryEngine(g, "treap", &error)
                  ->CountWithScoreAtLeast(2, 1))
        << name;
  }
  std::string error;
  EXPECT_EQ(core::BuildQueryEngine(g, "no-such-engine", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace esd
