#include "core/dynamic_index.h"

#include <algorithm>
#include <cassert>

#include "core/index_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;
using graph::VertexId;
using util::KeyedDsu;

namespace {

// Resolved once; afterwards each update is one relaxed atomic add.
obs::Counter& InsertCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_inserts_total", "Edge insertions applied (Algorithm 4)");
  return c;
}
obs::Counter& DeleteCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_deletes_total", "Edge deletions applied (Algorithm 5)");
  return c;
}
obs::Counter& TouchedCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_touched_edges_total",
      "Edges whose index entries were touched by updates (locality)");
  return c;
}

}  // namespace

MultisetMaintainer::MultisetMaintainer(const graph::Graph& g,
                                       const DiversityScorer& scorer,
                                       DeletionStrategy strategy)
    : graph_(g),
      scorer_(&scorer),
      use_dsu_(scorer.Kind() == ScorerKind::kEsd),
      strategy_(strategy),
      edges_(g.Edges()),
      live_(g.NumEdges(), 1) {
  const std::vector<std::vector<uint32_t>> sizes =
      use_dsu_ ? CliqueComponentSizes(g, &dsu_) : scorer.BuildAllEdgeValues(g);
  runs_.resize(sizes.size());
  for (EdgeId e = 0; e < sizes.size(); ++e) stored_ += sizes[e].size();
  pool_.reserve(stored_);
  for (EdgeId e = 0; e < sizes.size(); ++e) {
    const uint32_t len = static_cast<uint32_t>(sizes[e].size());
    runs_[e] = Run{pool_.size(), len, len};
    pool_.insert(pool_.end(), sizes[e].begin(), sizes[e].end());
  }
  ids_.Reserve(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ids_.Insert(Key(edges_[e].u, edges_[e].v), e);
  }
}

EdgeId MultisetMaintainer::IdOf(VertexId u, VertexId v) const {
  const EdgeId* e = ids_.Find(Key(u, v));
  assert(e != nullptr);
  return *e;
}

EdgeId MultisetMaintainer::RegisterEdge(Edge uv) {
  EdgeId e;
  if (!free_ids_.empty()) {
    e = free_ids_.back();
    free_ids_.pop_back();
    edges_[e] = uv;
    live_[e] = 1;
  } else {
    e = static_cast<EdgeId>(edges_.size());
    edges_.push_back(uv);
    live_.push_back(1);
    runs_.push_back(Run{pool_.size(), 0, 0});
  }
  if (lists_ != nullptr) {
    const EdgeId mirrored = lists_->RegisterEdge(uv);
    assert(mirrored == e);
    (void)mirrored;
  }
  ids_[Key(uv.u, uv.v)] = e;
  return e;
}

void MultisetMaintainer::UnregisterEdge(EdgeId e) {
  assert(live_[e] && runs_[e].size == 0);
  live_[e] = 0;
  free_ids_.push_back(e);
  if (lists_ != nullptr) lists_->UnregisterEdge(e);
  ids_.Erase(Key(edges_[e].u, edges_[e].v));
}

void MultisetMaintainer::SetSizes(EdgeId e, std::vector<uint32_t> sizes) {
  const std::span<const uint32_t> old = EdgeSizes(e);
  if (std::equal(old.begin(), old.end(), sizes.begin(), sizes.end())) return;
  Run& run = runs_[e];
  stored_ = stored_ - run.size + sizes.size();
  if (sizes.size() > run.capacity) {
    run.offset = pool_.size();
    run.capacity = static_cast<uint32_t>(sizes.size());
    pool_.resize(pool_.size() + sizes.size());
  }
  run.size = static_cast<uint32_t>(sizes.size());
  std::copy(sizes.begin(), sizes.end(), pool_.begin() + run.offset);
  if (pool_.size() > 2 * stored_ + 64) CompactPool();
  if (lists_ != nullptr) lists_->SetEdgeSizes(e, std::move(sizes));
}

void MultisetMaintainer::CompactPool() {
  std::vector<uint32_t> packed;
  packed.reserve(stored_);
  for (Run& run : runs_) {
    const uint64_t at = packed.size();
    packed.insert(packed.end(), pool_.begin() + run.offset,
                  pool_.begin() + run.offset + run.size);
    run = Run{at, run.size, run.size};
  }
  pool_.swap(packed);
}

void MultisetMaintainer::CopyForFreeze(FreezeCopy* out) const {
  out->scorer = Scorer();
  out->edges = edges_;
  out->live = live_;
  out->runs = runs_;
  out->pool = pool_;
}

FrozenEsdIndex MultisetMaintainer::FreezeCopied(FreezeCopy copy) {
  const size_t n = copy.edges.size();
  std::vector<uint64_t> size_offsets(n + 1, 0);
  for (EdgeId e = 0; e < n; ++e) {
    size_offsets[e + 1] = size_offsets[e] + copy.runs[e].size;
  }
  std::vector<uint32_t> size_pool(size_offsets[n]);
  for (EdgeId e = 0; e < n; ++e) {
    const Run& run = copy.runs[e];
    std::copy_n(copy.pool.begin() + run.offset, run.size,
                size_pool.begin() + size_offsets[e]);
  }
  return FrozenEsdIndex::FromPackedSizes(
      std::move(copy.edges), std::move(size_offsets), std::move(size_pool),
      std::move(copy.live), copy.scorer);
}

FrozenEsdIndex Freeze(const MultisetMaintainer& writer) {
  MultisetMaintainer::FreezeCopy copy;
  writer.CopyForFreeze(&copy);
  return MultisetMaintainer::FreezeCopied(std::move(copy));
}

std::vector<uint32_t> MultisetMaintainer::ValuesFor(EdgeId e) {
  if (use_dsu_) return dsu_[e].ComponentSizes();
  return scorer_->EdgeValues(graph_, edges_[e].u, edges_[e].v);
}

void MultisetMaintainer::RefreshScores(EdgeId e) {
  if (batch_mode_) {
    pending_refresh_.Insert(Key(edges_[e].u, edges_[e].v));
    return;
  }
  SetSizes(e, ValuesFor(e));
}

size_t MultisetMaintainer::ApplyBatch(std::span<const EdgeUpdate> updates) {
  batch_mode_ = true;
  pending_refresh_.Clear();
  size_t applied = 0;
  for (const EdgeUpdate& up : updates) {
    bool ok = up.kind == EdgeUpdate::Kind::kInsert ? InsertEdge(up.u, up.v)
                                                   : DeleteEdge(up.u, up.v);
    applied += ok;
  }
  batch_mode_ = false;
  size_t touched = 0;
  pending_refresh_.ForEach([this, &touched](uint64_t key) {
    const EdgeId* e = ids_.Find(key);
    if (e != nullptr) {  // skip edges deleted later in the batch
      SetSizes(*e, ValuesFor(*e));
      ++touched;
    }
  });
  pending_refresh_.Clear();
  last_touched_ = touched;
  return applied;
}

bool MultisetMaintainer::InsertEdge(VertexId u, VertexId v) {
  ESD_TRACE_SPAN("maintain.insert");
  if (!graph_.InsertEdge(u, v)) return false;
  InsertCounter().Inc();
  const EdgeId e = RegisterEdge(graph::MakeEdge(u, v));
  if (use_dsu_) {
    if (e >= dsu_.size()) {
      dsu_.resize(e + 1);
    } else {
      dsu_[e] = KeyedDsu();
    }
  }

  // Lines 2-9 of Algorithm 4: the common neighborhood seeds M_uv, and the
  // new edge makes v a common neighbor of every (u, w) — and u of every
  // (v, w) — for w in N(uv). The affected-edge enumeration is the same for
  // every scorer; only the DSU repairs are ESD-specific (non-ESD scorers
  // recompute each affected edge through the scorer hook instead).
  std::vector<VertexId> common = graph_.CommonNeighbors(u, v);
  std::vector<EdgeId> affected;
  affected.reserve(3 * common.size() + 1);
  affected.push_back(e);
  if (use_dsu_) dsu_[e].Reserve(common.size());
  util::FlatSet<VertexId> in_common(common.size());
  for (VertexId w : common) {
    in_common.Insert(w);
    EdgeId euw = IdOf(u, w);
    EdgeId evw = IdOf(v, w);
    if (use_dsu_) {
      dsu_[e].AddMember(w);
      dsu_[euw].AddMember(v);
      dsu_[evw].AddMember(u);
    }
    affected.push_back(euw);
    affected.push_back(evw);
  }

  // Lines 10-19: every edge (w1, w2) inside N(uv) closes the new 4-clique
  // {u, v, w1, w2}; merge the opposite pair in all six structures.
  for (VertexId w1 : common) {
    for (VertexId w2 : graph_.Neighbors(w1)) {
      if (w2 <= w1 || !in_common.Contains(w2)) continue;
      EdgeId e12 = IdOf(w1, w2);
      if (use_dsu_) {
        dsu_[e].Union(w1, w2);
        dsu_[IdOf(u, w1)].Union(v, w2);
        dsu_[IdOf(u, w2)].Union(v, w1);
        dsu_[IdOf(v, w1)].Union(u, w2);
        dsu_[IdOf(v, w2)].Union(u, w1);
        dsu_[e12].Union(u, v);
      }
      affected.push_back(e12);
    }
  }

  // Lines 20-22: refresh C_xy and H for every edge of Ĝ_{N(uv)}.
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (EdgeId a : affected) RefreshScores(a);
  last_touched_ = affected.size();
  TouchedCounter().Inc(last_touched_);
  return true;
}

bool MultisetMaintainer::DeleteEdge(VertexId u, VertexId v) {
  ESD_TRACE_SPAN("maintain.delete");
  const uint64_t key = Key(u, v);
  const EdgeId* pe = ids_.Find(key);
  if (pe == nullptr) return false;
  const EdgeId e = *pe;
  DeleteCounter().Inc();

  // Snapshot the affected subgraph G̃_{N(uv)} before mutating the graph.
  std::vector<VertexId> common = graph_.CommonNeighbors(u, v);
  util::FlatSet<VertexId> in_common(common.size());
  for (VertexId w : common) in_common.Insert(w);
  struct Pair {
    VertexId w1, w2;
    EdgeId e12;
  };
  std::vector<Pair> pairs;
  for (VertexId w1 : common) {
    for (VertexId w2 : graph_.Neighbors(w1)) {
      if (w2 <= w1 || !in_common.Contains(w2)) continue;
      pairs.push_back(Pair{w1, w2, IdOf(w1, w2)});
    }
  }

  graph_.EraseEdge(u, v);

  std::vector<EdgeId> affected;
  affected.reserve(2 * common.size() + pairs.size());

  if (!use_dsu_) {
    // Non-ESD scorers: same affected set, repaired by recomputing each
    // edge's values from the post-deletion graph via the scorer hook.
    for (VertexId w : common) {
      affected.push_back(IdOf(u, w));
      affected.push_back(IdOf(v, w));
    }
    for (const Pair& p : pairs) affected.push_back(p.e12);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
  } else if (strategy_ == DeletionStrategy::kRebuildLocal) {
    for (VertexId w : common) {
      affected.push_back(IdOf(u, w));
      affected.push_back(IdOf(v, w));
    }
    for (const Pair& p : pairs) affected.push_back(p.e12);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (EdgeId a : affected) RebuildDsu(a);
  } else {
    // Algorithm 5. For each w in N(uv): v leaves N(uw) and u leaves N(vw);
    // if the leaving endpoint was isolated it is simply dropped (lines 6-9),
    // otherwise its component is rebuilt (the Update procedure).
    for (VertexId w : common) {
      EdgeId euw = IdOf(u, w);
      EdgeId evw = IdOf(v, w);
      if (!dsu_[euw].RemoveSingleton(v)) TargetedRepair(euw, v);
      if (!dsu_[evw].RemoveSingleton(u)) TargetedRepair(evw, u);
      affected.push_back(euw);
      affected.push_back(evw);
    }
    // For each edge (w1, w2) inside N(uv): the 4-clique {u, v, w1, w2} is
    // broken; u and v stay members of M_{w1w2} but their shared component
    // may split (lines 10-18).
    for (const Pair& p : pairs) {
      TargetedRepair(p.e12, u);
      affected.push_back(p.e12);
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
  }
  for (EdgeId a : affected) RefreshScores(a);

  // Lines 22-23: drop the deleted edge itself.
  SetSizes(e, {});
  UnregisterEdge(e);
  if (use_dsu_) dsu_[e] = KeyedDsu();
  last_touched_ = affected.size() + 1;
  TouchedCounter().Inc(last_touched_);
  return true;
}

size_t MultisetMaintainer::RemoveVertexEdges(graph::VertexId v) {
  if (v >= graph_.NumVertices()) return 0;
  auto nbrs = graph_.Neighbors(v);
  std::vector<EdgeUpdate> batch;
  batch.reserve(nbrs.size());
  for (graph::VertexId w : nbrs) {
    batch.push_back({EdgeUpdate::Kind::kDelete, v, w});
  }
  return ApplyBatch(batch);
}

void MultisetMaintainer::RebuildDsu(EdgeId e) {
  const Edge xy = edges_[e];
  KeyedDsu fresh;
  std::vector<VertexId> common = graph_.CommonNeighbors(xy.u, xy.v);
  fresh.Reserve(common.size());
  util::FlatSet<VertexId> in_common(common.size());
  for (VertexId w : common) {
    fresh.AddMember(w);
    in_common.Insert(w);
  }
  for (VertexId w1 : common) {
    for (VertexId w2 : graph_.Neighbors(w1)) {
      if (w2 > w1 && in_common.Contains(w2)) fresh.Union(w1, w2);
    }
  }
  dsu_[e] = std::move(fresh);
}

void MultisetMaintainer::TargetedRepair(EdgeId e, VertexId z) {
  KeyedDsu& m = dsu_[e];
  if (!m.Contains(z)) return;
  const Edge xy = edges_[e];
  std::vector<VertexId> stale = m.ComponentMembers(z);
  m.RemoveComponent(z);
  // Re-admit members still in N(xy) as singletons (lines 28-30), then
  // re-union along surviving ego-network edges (lines 31-33). Deletions
  // only split components, so edges leaving the old component's vertex set
  // cannot exist.
  util::FlatSet<VertexId> keep(stale.size());
  for (VertexId w : stale) {
    if (graph_.HasEdge(xy.u, w) && graph_.HasEdge(xy.v, w)) {
      m.AddMember(w);
      keep.Insert(w);
    }
  }
  for (VertexId w : stale) {
    if (!keep.Contains(w)) continue;
    for (VertexId w2 : graph_.Neighbors(w)) {
      if (w2 > w && keep.Contains(w2)) m.Union(w, w2);
    }
  }
}

DynamicEsdIndex::DynamicEsdIndex(const graph::Graph& g,
                                 DeletionStrategy strategy)
    : DynamicEsdIndex(g, EsdScorer(), strategy) {}

DynamicEsdIndex::DynamicEsdIndex(const graph::Graph& g,
                                 const DiversityScorer& scorer,
                                 DeletionStrategy strategy)
    : maintainer_(g, scorer, strategy) {
  const size_t m = maintainer_.EdgeSlotCount();
  std::vector<Edge> edges(m);
  std::vector<std::vector<uint32_t>> sizes(m);
  for (EdgeId e = 0; e < m; ++e) {
    edges[e] = maintainer_.EdgeAt(e);
    const std::span<const uint32_t> values = maintainer_.EdgeSizes(e);
    sizes[e].assign(values.begin(), values.end());
  }
  index_.BulkLoad(std::move(edges), std::move(sizes));
  index_.SetScorerKind(scorer.Kind());
  maintainer_.AttachLists(&index_);
}

}  // namespace esd::core
