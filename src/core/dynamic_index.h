#ifndef ESD_CORE_DYNAMIC_INDEX_H_
#define ESD_CORE_DYNAMIC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "util/dsu.h"
#include "util/flat_map.h"

namespace esd::core {

/// How DeleteEdge repairs the per-edge disjoint sets of affected edges.
enum class DeletionStrategy {
  /// Rebuild M_xy of every affected edge from scratch (simple, obviously
  /// correct; cost O(Σ |N(xy)| · d̄) over affected edges).
  kRebuildLocal,
  /// The paper's Update procedure (Algorithm 5, lines 24-35): rebuild only
  /// the single component that contained the deleted edge's endpoints.
  kTargeted,
};

/// The maintenance state of Section V without the H(c) lists: the
/// evolving graph, an edge registry (dense ids, freed ids reused LIFO), the
/// per-edge disjoint-set structures M_e and every edge's value multiset
/// C_e. InsertEdge implements Algorithm 4 and DeleteEdge Algorithm 5 (both
/// deletion strategies); they are the one code path that writes the
/// multisets.
///
/// The key locality property (Observations 2 and 3): an update of edge
/// (u, v) only touches edges of the subgraph Ĝ_{N(uv)} induced by
/// N(uv) ∪ {u, v}.
///
/// For the ESD scorer the multisets are M_e's component sizes, repaired
/// incrementally. For any other scorer the same affected-edge enumeration
/// applies — an update of (u, v) only changes the ego subgraphs of the
/// edge itself, the wedge edges (u, w)/(v, w), and the pair edges inside
/// N(uv) — but each affected edge's multiset is recomputed through the
/// scorer's single-edge hook instead of repaired via disjoint sets.
///
/// The live writer keeps exactly this state: a freeze reads only the
/// registry and the multisets. The paper's "dynamic" engine
/// (DynamicEsdIndex) additionally attaches the H(c) treaps, which then
/// mirror every registry and multiset change.
///
/// The multisets are stored flat, as runs in one pool, so that copying
/// them for a freeze is one bulk copy rather than a gather over one heap
/// block per edge.
class MultisetMaintainer {
 public:
  /// One update of a batch.
  struct EdgeUpdate {
    enum class Kind : uint8_t { kInsert, kDelete };
    Kind kind;
    graph::VertexId u, v;
  };

  /// Where a slot's multiset lives in the pool: pool[offset, offset +
  /// size), with room for `capacity` values before the run must move.
  struct Run {
    uint64_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// The state a freeze reads, copied raw: the edge slots, the live mask,
  /// and the runs and pool exactly as the maintainer stores them (the pool
  /// may hold holes left by runs that moved).
  struct FreezeCopy {
    ScorerKind scorer = ScorerKind::kEsd;
    std::vector<graph::Edge> edges;
    std::vector<uint8_t> live;
    std::vector<Run> runs;
    std::vector<uint32_t> pool;
  };

  /// Bootstraps from a static snapshot: the ESD 4-clique build
  /// (CliqueComponentSizes, keeping its disjoint sets) for the ESD scorer,
  /// the scorer's bulk hook otherwise. Edge ids are g's ids. `scorer` must
  /// outlive the maintainer (the built-ins are singletons).
  MultisetMaintainer(const graph::Graph& g, const DiversityScorer& scorer,
                     DeletionStrategy strategy = DeletionStrategy::kTargeted);

  /// Inserts edge {u, v} and repairs the multisets (Algorithm 4).
  /// Returns false (no-op) if the edge exists or u == v.
  bool InsertEdge(graph::VertexId u, graph::VertexId v);

  /// Deletes edge {u, v} and repairs the multisets (Algorithm 5).
  /// Returns false (no-op) if the edge does not exist.
  bool DeleteEdge(graph::VertexId u, graph::VertexId v);

  /// Applies a sequence of updates, deferring and deduplicating the
  /// multiset refreshes until the end of the batch — edges touched by
  /// several updates are re-scored once (an extension beyond the paper's
  /// one-update-at-a-time algorithms). Returns the number of updates that
  /// took effect.
  size_t ApplyBatch(std::span<const EdgeUpdate> updates);

  /// Adds an isolated vertex and returns its id.
  graph::VertexId AddVertex() { return graph_.AddVertex(); }

  /// Removes every edge incident to `v` as one batch (v itself remains as
  /// an isolated vertex). Returns the number of edges removed.
  size_t RemoveVertexEdges(graph::VertexId v);

  /// Copies the state a freeze reads into *out: four bulk array copies and
  /// nothing else, so a writer lock held around it is held briefly.
  void CopyForFreeze(FreezeCopy* out) const;

  /// The frozen serving image of a copy: packs its runs as CSR and builds
  /// the slabs (FrozenEsdIndex::FromPackedSizes). Reads nothing but `copy`,
  /// so it runs without the writer lock.
  static FrozenEsdIndex FreezeCopied(FreezeCopy copy);

  /// Attaches the paper's H(c) lists. `lists` must already hold this
  /// maintainer's registry and multisets (same ids) and outlive it; from
  /// then on every change is mirrored into it.
  void AttachLists(EsdIndex* lists) { lists_ = lists; }

  // ---- Reads ---------------------------------------------------------------

  /// Id of the existing edge {u, v}.
  graph::EdgeId IdOf(graph::VertexId u, graph::VertexId v) const;

  graph::Edge EdgeAt(graph::EdgeId e) const { return edges_[e]; }
  size_t EdgeSlotCount() const { return edges_.size(); }
  size_t NumRegisteredEdges() const { return edges_.size() - free_ids_.size(); }

  /// Value multiset C_e of slot e (ascending; empty for a freed slot).
  std::span<const uint32_t> EdgeSizes(graph::EdgeId e) const {
    return {pool_.data() + runs_[e].offset, runs_[e].size};
  }

  const graph::DynamicGraph& CurrentGraph() const { return graph_; }
  ScorerKind Scorer() const { return scorer_->Kind(); }

  /// Number of edges whose multisets were refreshed by the last update —
  /// the locality measure reported by the maintenance bench.
  size_t LastUpdateTouchedEdges() const { return last_touched_; }

 private:
  static uint64_t Key(graph::VertexId u, graph::VertexId v) {
    graph::Edge e = graph::MakeEdge(u, v);
    return (static_cast<uint64_t>(e.u) << 32) | e.v;
  }

  graph::EdgeId RegisterEdge(graph::Edge uv);
  void UnregisterEdge(graph::EdgeId e);

  /// Stores `sizes` as C_e and mirrors the change into the attached lists.
  void SetSizes(graph::EdgeId e, std::vector<uint32_t> sizes);

  /// Rewrites the pool with every run back to back in slot order.
  void CompactPool();

  /// Rebuilds dsu_[e] from the current graph (common neighborhood +
  /// pairwise adjacency unions).
  void RebuildDsu(graph::EdgeId e);

  /// Paper's Update: in M_e, rebuild only the component containing z.
  /// `z` need not be a member (then this is a no-op).
  void TargetedRepair(graph::EdgeId e, graph::VertexId z);

  /// Refreshes edge e's multiset (deferred in batch mode).
  void RefreshScores(graph::EdgeId e);

  /// Edge e's value multiset right now: M_e's component sizes on the DSU
  /// fast path, otherwise a scorer recompute from the current graph.
  std::vector<uint32_t> ValuesFor(graph::EdgeId e);

  graph::DynamicGraph graph_;
  const DiversityScorer* scorer_;  // never null
  bool use_dsu_;  // ESD only: maintain per-edge DSUs incrementally
  DeletionStrategy strategy_;
  std::vector<graph::Edge> edges_;              // by EdgeId
  std::vector<uint8_t> live_;                   // by EdgeId
  std::vector<graph::EdgeId> free_ids_;
  std::vector<util::KeyedDsu> dsu_;             // by EdgeId (DSU path only)
  // C_e by EdgeId: a run that outgrows its capacity moves to the end of
  // the pool, and the pool is compacted once it holds more holes than
  // values.
  std::vector<Run> runs_;
  std::vector<uint32_t> pool_;
  uint64_t stored_ = 0;                         // sum of run sizes
  util::FlatMap<uint64_t, graph::EdgeId> ids_;  // (u,v) -> EdgeId
  EsdIndex* lists_ = nullptr;                   // attached H(c) lists
  size_t last_touched_ = 0;
  // Batch mode: RefreshScores records edge keys here instead of refreshing.
  bool batch_mode_ = false;
  util::FlatSet<uint64_t> pending_refresh_;
};

/// The frozen serving image of a maintainer's current state.
FrozenEsdIndex Freeze(const MultisetMaintainer& writer);

/// A dynamically maintained ESDIndex (Section V): a MultisetMaintainer with
/// the paper's H(c) treaps attached.
///
/// As an EsdQueryEngine the class delegates every read to the maintained
/// EsdIndex, so a dynamic deployment serves the exact same answers as a
/// static one built on the current graph.
class DynamicEsdIndex final : public EsdQueryEngine {
 public:
  using EdgeUpdate = MultisetMaintainer::EdgeUpdate;

  /// Bootstraps from a static snapshot using the 4-clique builder.
  explicit DynamicEsdIndex(
      const graph::Graph& g,
      DeletionStrategy strategy = DeletionStrategy::kTargeted);

  /// Scorer-parameterized bootstrap (see MultisetMaintainer for how
  /// non-ESD scorers are maintained). `scorer` must outlive the index (the
  /// built-ins are singletons).
  DynamicEsdIndex(const graph::Graph& g, const DiversityScorer& scorer,
                  DeletionStrategy strategy = DeletionStrategy::kTargeted);

  /// The maintainer holds a pointer to index_.
  DynamicEsdIndex(const DynamicEsdIndex&) = delete;
  DynamicEsdIndex& operator=(const DynamicEsdIndex&) = delete;

  /// Inserts edge {u, v} and repairs the index (Algorithm 4).
  /// Returns false (no-op) if the edge exists or u == v.
  bool InsertEdge(graph::VertexId u, graph::VertexId v) {
    return maintainer_.InsertEdge(u, v);
  }

  /// Deletes edge {u, v} and repairs the index (Algorithm 5).
  /// Returns false (no-op) if the edge does not exist.
  bool DeleteEdge(graph::VertexId u, graph::VertexId v) {
    return maintainer_.DeleteEdge(u, v);
  }

  /// See MultisetMaintainer::ApplyBatch.
  size_t ApplyBatch(std::span<const EdgeUpdate> updates) {
    return maintainer_.ApplyBatch(updates);
  }

  /// Adds an isolated vertex and returns its id. (Section V: "vertex
  /// insertion and deletion can be treated as a series of edge insertions
  /// and deletions" — pair this with InsertEdge for the edges.)
  graph::VertexId AddVertex() { return maintainer_.AddVertex(); }

  /// Removes every edge incident to `v` as one batch (v itself remains as
  /// an isolated vertex, matching the paper's reduction of vertex deletion
  /// to edge deletions). Returns the number of edges removed.
  size_t RemoveVertexEdges(graph::VertexId v) {
    return maintainer_.RemoveVertexEdges(v);
  }

  /// Top-k query against the maintained index. O(k log m + log n).
  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override {
    return index_.Query(k, tau, pad_with_zero_edges);
  }

  /// Structural diversity of edge {u, v} at threshold tau, from the
  /// maintained multiset. Edge must exist.
  uint32_t ScoreOf(graph::VertexId u, graph::VertexId v, uint32_t tau) const {
    return index_.ScoreOf(maintainer_.IdOf(u, v), tau);
  }

  /// EsdQueryEngine reads, delegated to the maintained index. Edge ids are
  /// the maintained index's dense ids (stable across updates that do not
  /// remove the edge).
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override {
    return index_.ScoreOf(e, tau);
  }
  uint64_t CountWithScoreAtLeast(uint32_t tau,
                                 uint32_t min_score) const override {
    return index_.CountWithScoreAtLeast(tau, min_score);
  }
  TopKResult QueryWithScoreAtLeast(uint32_t tau, uint32_t min_score,
                                   size_t limit = 0) const override {
    return index_.QueryWithScoreAtLeast(tau, min_score, limit);
  }
  /// Bytes of the maintained index payload (the serving structure; the
  /// per-edge DSU maintenance state is not counted).
  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }
  std::string_view EngineName() const override { return "dynamic"; }
  ScorerKind Scorer() const override { return maintainer_.Scorer(); }

  /// Work counters of the maintained index (queries route through it).
  EngineCounters Counters() const override { return index_.Counters(); }

  /// Current graph.
  const graph::DynamicGraph& CurrentGraph() const {
    return maintainer_.CurrentGraph();
  }

  /// The maintained index (for introspection and tests).
  const EsdIndex& Index() const { return index_; }

  /// Number of edges whose score entries were touched by the last update —
  /// the locality measure reported by the maintenance bench.
  size_t LastUpdateTouchedEdges() const {
    return maintainer_.LastUpdateTouchedEdges();
  }

 private:
  MultisetMaintainer maintainer_;
  EsdIndex index_;
};

}  // namespace esd::core

#endif  // ESD_CORE_DYNAMIC_INDEX_H_
