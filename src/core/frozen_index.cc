#include "core/frozen_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/esd_index.h"
#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

namespace {

/// Canonical slab order: score descending, then edge id ascending — the
/// same total order EsdIndex::EntryLess imposes on the treaps.
bool EntryBefore(const FrozenEsdIndex::Entry& a,
                 const FrozenEsdIndex::Entry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.e < b.e;
}

uint32_t ScoreAt(std::span<const uint32_t> sizes, uint32_t c) {
  return static_cast<uint32_t>(
      sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), c));
}

// The distinct values of `pool`, ascending. Values no larger than the pool
// is long are collected in a presence array: an edge's component sizes sum
// to its common-neighborhood size, so ESD values always qualify. Anything
// else (a loaded file may hold any value) is sorted instead.
std::vector<uint32_t> DistinctValues(const std::vector<uint32_t>& pool,
                                     uint32_t max_value) {
  std::vector<uint32_t> out;
  if (max_value <= pool.size()) {
    std::vector<uint8_t> seen(size_t{max_value} + 1, 0);
    for (uint32_t v : pool) seen[v] = 1;
    for (size_t v = 0; v < seen.size(); ++v) {
      if (seen[v] != 0) out.push_back(static_cast<uint32_t>(v));
    }
  } else {
    out = pool;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

// Packs slot e's multiset sizes_of(e) into CSR. Slots that `live` marks
// freed (an empty mask means all live) get an empty run.
template <typename SizesOf>
void PackSizes(size_t n, const std::vector<uint8_t>& live, SizesOf&& sizes_of,
               std::vector<uint64_t>* offsets, std::vector<uint32_t>* pool) {
  auto is_live = [&](EdgeId e) { return live.empty() || live[e] != 0; };
  offsets->assign(n + 1, 0);
  for (EdgeId e = 0; e < n; ++e) {
    (*offsets)[e + 1] =
        (*offsets)[e] + (is_live(e) ? sizes_of(e).size() : 0);
  }
  pool->clear();
  pool->reserve((*offsets)[n]);
  for (EdgeId e = 0; e < n; ++e) {
    if (!is_live(e)) continue;
    const auto& sizes = sizes_of(e);
    pool->insert(pool->end(), sizes.begin(), sizes.end());
  }
}

}  // namespace

FrozenEsdIndex FrozenEsdIndex::FromEdgeSizes(
    std::vector<Edge> edges, std::vector<std::vector<uint32_t>> sizes_per_edge,
    std::vector<uint8_t> live, ScorerKind scorer) {
  assert(sizes_per_edge.size() == edges.size());
  std::vector<uint64_t> size_offsets;
  std::vector<uint32_t> size_pool;
  PackSizes(
      edges.size(), live,
      [&](EdgeId e) -> const std::vector<uint32_t>& {
        return sizes_per_edge[e];
      },
      &size_offsets, &size_pool);
  return FromPackedSizes(std::move(edges), std::move(size_offsets),
                         std::move(size_pool), std::move(live), scorer);
}

FrozenEsdIndex FrozenEsdIndex::FromPackedSizes(
    std::vector<Edge> edges, std::vector<uint64_t> size_offsets,
    std::vector<uint32_t> size_pool, std::vector<uint8_t> live,
    ScorerKind scorer) {
  obs::PhaseSeries phases;
  phases.Begin("build.slab_sort");
  FrozenEsdIndex out;
  out.scorer_ = scorer;
  const size_t n = edges.size();
  out.edges_ = std::move(edges);
  out.live_ = live.empty() ? std::vector<uint8_t>(n, 1) : std::move(live);
  out.size_offsets_ = std::move(size_offsets);
  out.size_pool_ = std::move(size_pool);
  assert(out.live_.size() == n && out.size_offsets_.size() == n + 1 &&
         out.size_offsets_[n] == out.size_pool_.size());
  uint32_t max_value = 0;
  uint64_t max_len = 0;
  for (EdgeId e = 0; e < n; ++e) {
    std::span<const uint32_t> sizes = out.EdgeSizes(e);
    assert(std::is_sorted(sizes.begin(), sizes.end()));
    assert(out.live_[e] || sizes.empty());  // freed slots carry nothing
    if (out.live_[e]) ++out.num_live_;
    if (sizes.empty()) continue;
    max_value = std::max(max_value, sizes.back());
    max_len = std::max<uint64_t>(max_len, sizes.size());
  }
  out.sizes_ = DistinctValues(out.size_pool_, max_value);
  const size_t num_c = out.sizes_.size();

  // Bucket the edges by the index of their maximum size. This is a
  // counting sort, so each bucket lists its edges in ascending id order.
  std::vector<uint32_t> top(n);
  std::vector<uint64_t> bucket(num_c + 1, 0);
  for (EdgeId e = 0; e < n; ++e) {
    std::span<const uint32_t> sizes = out.EdgeSizes(e);
    if (sizes.empty()) continue;
    top[e] = static_cast<uint32_t>(
        std::lower_bound(out.sizes_.begin(), out.sizes_.end(), sizes.back()) -
        out.sizes_.begin());
    ++bucket[top[e] + 1];
  }
  for (size_t i = 0; i < num_c; ++i) bucket[i + 1] += bucket[i];
  std::vector<EdgeId> by_max(bucket[num_c]);
  {
    std::vector<uint64_t> next(bucket.begin(), bucket.end() - 1);
    for (EdgeId e = 0; e < n; ++e) {
      if (out.size_offsets_[e] != out.size_offsets_[e + 1]) {
        by_max[next[top[e]]++] = e;
      }
    }
  }
  // |H(c_i)| = #{edges with max(C_e) >= c_i}: buckets i and up.
  out.offsets_.assign(num_c + 1, 0);
  for (size_t i = 0; i < num_c; ++i) {
    out.offsets_[i + 1] = out.offsets_[i] + (bucket[num_c] - bucket[i]);
  }
  out.entries_.resize(out.offsets_[num_c]);

  // Sweep c from largest to smallest. The active set (edges with max >= c)
  // stays in ascending id order by merging each bucket into it, and a
  // stable counting sort on score (descending) then yields the canonical
  // slab order: ties keep ascending ids.
  std::vector<EdgeId> active, merged;
  std::vector<uint32_t> score;
  std::vector<uint64_t> slot(max_len + 1);
  for (size_t i = num_c; i-- > 0;) {
    if (bucket[i] != bucket[i + 1]) {
      merged.resize(active.size() + (bucket[i + 1] - bucket[i]));
      std::merge(active.begin(), active.end(), by_max.begin() + bucket[i],
                 by_max.begin() + bucket[i + 1], merged.begin());
      active.swap(merged);
    }
    const uint32_t c = out.sizes_[i];
    score.resize(active.size());
    uint32_t top_score = 0;
    for (size_t j = 0; j < active.size(); ++j) {
      score[j] = ScoreAt(out.EdgeSizes(active[j]), c);
      top_score = std::max(top_score, score[j]);
    }
    std::fill(slot.begin(), slot.begin() + top_score + 1, 0);
    for (uint32_t s : score) ++slot[s];
    uint64_t pos = out.offsets_[i];
    for (uint32_t s = top_score; s > 0; --s) {
      const uint64_t count = slot[s];
      slot[s] = pos;
      pos += count;
    }
    assert(pos == out.offsets_[i + 1]);
    for (size_t j = 0; j < active.size(); ++j) {
      out.entries_[slot[score[j]]++] = Entry{score[j], active[j]};
    }
  }
  return out;
}

bool FrozenEsdIndex::Adopt(Parts parts, FrozenEsdIndex* out,
                           std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!ValidScorerKind(static_cast<uint32_t>(parts.scorer))) {
    return fail("frozen index: unknown scorer id");
  }
  const size_t n = parts.edges.size();
  if (parts.live.size() != n) return fail("frozen index: live mask size");
  if (parts.size_offsets.size() != n + 1 || parts.size_offsets[0] != 0 ||
      parts.size_offsets[n] != parts.size_pool.size()) {
    return fail("frozen index: size-offset table malformed");
  }
  uint64_t num_live = 0;
  uint32_t max_value = 0;
  for (size_t e = 0; e < n; ++e) {
    const uint64_t lo = parts.size_offsets[e], hi = parts.size_offsets[e + 1];
    if (lo > hi) return fail("frozen index: size offsets not monotone");
    if (parts.live[e] == 0 && lo != hi) {
      return fail("frozen index: freed slot with non-empty multiset");
    }
    num_live += parts.live[e] != 0 ? 1 : 0;
    uint32_t prev = 0;
    for (uint64_t i = lo; i < hi; ++i) {
      if (parts.size_pool[i] == 0 || parts.size_pool[i] < prev) {
        return fail("frozen index: multiset not sorted/positive");
      }
      prev = parts.size_pool[i];
    }
    max_value = std::max(max_value, prev);
  }
  // C must be exactly the distinct sizes occurring in the pool.
  if (DistinctValues(parts.size_pool, max_value) != parts.sizes) {
    return fail("frozen index: size set C does not match multisets");
  }
  const size_t num_c = parts.sizes.size();
  if (parts.offsets.size() != num_c + 1 || parts.offsets[0] != 0 ||
      parts.offsets[num_c] != parts.entries.size()) {
    return fail("frozen index: slab offset table malformed");
  }
  // Expected |H(c_i)| = #{edges with max(C_e) >= c_i}: bucket each edge by
  // the index of its maximum size, then suffix-sum.
  std::vector<uint64_t> expected_len(num_c + 1, 0);
  for (size_t e = 0; e < n; ++e) {
    const uint64_t shi = parts.size_offsets[e + 1];
    if (parts.size_offsets[e] == shi) continue;
    size_t idx = static_cast<size_t>(
        std::lower_bound(parts.sizes.begin(), parts.sizes.end(),
                         parts.size_pool[shi - 1]) -
        parts.sizes.begin());
    ++expected_len[idx];
  }
  for (size_t i = num_c; i-- > 0;) expected_len[i] += expected_len[i + 1];
  // Validate each slab: strict canonical order, in-range live edges, and
  // scores consistent with the stored multisets. Completeness (every edge
  // with max >= c present) follows from the slab-length check: strict
  // order makes entries distinct, and each must have max >= c.
  for (size_t i = 0; i < num_c; ++i) {
    const uint32_t c = parts.sizes[i];
    const uint64_t lo = parts.offsets[i], hi = parts.offsets[i + 1];
    if (lo > hi) return fail("frozen index: slab offsets not monotone");
    if (hi - lo != expected_len[i]) {
      return fail("frozen index: slab length wrong");
    }
    for (uint64_t j = lo; j < hi; ++j) {
      const Entry& entry = parts.entries[j];
      if (j > lo && !EntryBefore(parts.entries[j - 1], entry)) {
        return fail("frozen index: slab not in canonical order");
      }
      if (entry.e >= n || parts.live[entry.e] == 0) {
        return fail("frozen index: slab entry references bad edge");
      }
      std::span<const uint32_t> sizes{
          parts.size_pool.data() + parts.size_offsets[entry.e],
          parts.size_pool.data() + parts.size_offsets[entry.e + 1]};
      if (entry.score != ScoreAt(sizes, c) || entry.score == 0) {
        return fail("frozen index: slab score inconsistent with multiset");
      }
    }
  }
  out->edges_ = std::move(parts.edges);
  out->live_ = std::move(parts.live);
  out->size_offsets_ = std::move(parts.size_offsets);
  out->size_pool_ = std::move(parts.size_pool);
  out->sizes_ = std::move(parts.sizes);
  out->offsets_ = std::move(parts.offsets);
  out->entries_ = std::move(parts.entries);
  out->num_live_ = num_live;
  out->scorer_ = parts.scorer;
  return true;
}

size_t FrozenEsdIndex::FindSlab(uint32_t tau) const {
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return kNoSlab;
  return static_cast<size_t>(it - sizes_.begin());
}

TopKResult FrozenEsdIndex::Query(uint32_t k, uint32_t tau,
                                 bool pad_with_zero_edges) const {
  if (k == 0 || tau == 0) return {};
  return QueryAtSlab(FindSlab(tau), k, pad_with_zero_edges);
}

TopKResult FrozenEsdIndex::QueryAtSlab(size_t slab_index, uint32_t k,
                                       bool pad_with_zero_edges) const {
  TopKResult out;
  if (k == 0) return out;
  counters_.AddQuery();
  std::span<const Entry> slab;
  if (slab_index != kNoSlab) slab = ListAt(slab_index);
  const size_t take = std::min<size_t>(k, slab.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredEdge{edges_[slab[i].e], slab[i].score});
  }
  if (pad_with_zero_edges) PadQueryResult(slab_index, k, &out);
  // Only the real slab prefix counts as entries scanned: zero-padded filler
  // edges never touch a slab, and counting them would inflate the engine
  // work counters cache-benefit analysis compares against.
  counters_.AddEntriesScanned(take);
  return out;
}

void FrozenEsdIndex::PadQueryResult(size_t slab_index, uint32_t k,
                                    TopKResult* inout) const {
  TopKResult& out = *inout;
  if (out.size() >= k) return;
  // Padding runs only once the whole slab is in *inout, and slab i is
  // exactly the edges with max(C_e) >= sizes_[i]: an edge was reported iff
  // the last element of its multiset reaches sizes_[i] (see the header).
  const bool no_slab = slab_index == kNoSlab;
  const uint32_t c = no_slab ? 0 : sizes_[slab_index];
  out.reserve(std::min<uint64_t>(k, num_live_));
  EdgeId e = 0;
  for (; e < edges_.size() && out.size() < k; ++e) {
    if (!live_[e]) continue;
    const uint64_t hi = size_offsets_[e + 1];
    if (!no_slab && hi != size_offsets_[e] && size_pool_[hi - 1] >= c) {
      continue;
    }
    out.push_back(ScoredEdge{edges_[e], 0});
  }
  counters_.AddPadEdgesWalked(e);
}

uint32_t FrozenEsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  return ScoreAt(EdgeSizes(e), tau);
}

uint64_t FrozenEsdIndex::CountWithScoreAtLeast(uint32_t tau,
                                               uint32_t min_score) const {
  if (min_score == 0) return num_live_;
  if (tau == 0) return 0;
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return 0;
  std::span<const Entry> slab =
      ListAt(static_cast<size_t>(it - sizes_.begin()));
  // Scores are descending, so the >= min_score prefix is a partition point.
  auto pos = std::partition_point(
      slab.begin(), slab.end(),
      [min_score](const Entry& x) { return x.score >= min_score; });
  return static_cast<uint64_t>(pos - slab.begin());
}

TopKResult FrozenEsdIndex::QueryWithScoreAtLeast(uint32_t tau,
                                                 uint32_t min_score,
                                                 size_t limit) const {
  TopKResult out;
  if (tau == 0 || min_score == 0) return out;
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return out;
  for (const Entry& entry : ListAt(static_cast<size_t>(it - sizes_.begin()))) {
    if (entry.score < min_score) break;
    if (limit > 0 && out.size() >= limit) break;
    out.push_back(ScoredEdge{edges_[entry.e], entry.score});
  }
  counters_.AddEntriesScanned(out.size());
  return out;
}

uint64_t FrozenEsdIndex::MemoryBytes() const {
  return entries_.size() * sizeof(Entry) +
         size_pool_.size() * sizeof(uint32_t) +
         sizes_.size() * sizeof(uint32_t) +
         offsets_.size() * sizeof(uint64_t) +
         size_offsets_.size() * sizeof(uint64_t) +
         edges_.size() * sizeof(Edge) + live_.size() * sizeof(uint8_t);
}

bool operator==(const FrozenEsdIndex& a, const FrozenEsdIndex& b) {
  return a.scorer_ == b.scorer_ && a.edges_ == b.edges_ &&
         a.live_ == b.live_ && a.size_offsets_ == b.size_offsets_ &&
         a.size_pool_ == b.size_pool_ && a.sizes_ == b.sizes_ &&
         a.offsets_ == b.offsets_ && a.entries_ == b.entries_;
}

FrozenEsdIndex Freeze(const EsdIndex& index) {
  const size_t slots = index.EdgeSlotCount();
  std::vector<Edge> edges(slots);
  std::vector<uint8_t> live(slots);
  for (EdgeId e = 0; e < slots; ++e) {
    edges[e] = index.EdgeAt(e);
    live[e] = index.IsLive(e) ? 1 : 0;
  }
  std::vector<uint64_t> size_offsets;
  std::vector<uint32_t> size_pool;
  PackSizes(
      slots, live,
      [&](EdgeId e) -> const std::vector<uint32_t>& {
        return index.EdgeSizes(e);
      },
      &size_offsets, &size_pool);
  return FrozenEsdIndex::FromPackedSizes(
      std::move(edges), std::move(size_offsets), std::move(size_pool),
      std::move(live), index.Scorer());
}

EsdIndex Thaw(const FrozenEsdIndex& frozen) {
  const size_t slots = frozen.EdgeSlotCount();
  bool all_live = frozen.NumRegisteredEdges() == slots;
  EsdIndex out;
  if (all_live) {
    std::vector<Edge> edges(frozen.Edges().begin(), frozen.Edges().end());
    std::vector<std::vector<uint32_t>> sizes;
    sizes.reserve(slots);
    for (EdgeId e = 0; e < slots; ++e) {
      std::span<const uint32_t> s = frozen.EdgeSizes(e);
      sizes.emplace_back(s.begin(), s.end());
    }
    out.BulkLoad(std::move(edges), std::move(sizes));
  } else {
    // Register every slot first so ids stay sequential (RegisterEdge would
    // otherwise recycle freed ids mid-replay), then free the dead ones.
    for (EdgeId e = 0; e < slots; ++e) {
      EdgeId got = out.RegisterEdge(frozen.EdgeAt(e));
      assert(got == e);
      (void)got;
      if (frozen.IsLive(e)) {
        std::span<const uint32_t> s = frozen.EdgeSizes(e);
        out.SetEdgeSizes(e, std::vector<uint32_t>(s.begin(), s.end()));
      }
    }
    for (EdgeId e = 0; e < slots; ++e) {
      if (!frozen.IsLive(e)) out.UnregisterEdge(e);
    }
  }
  out.SetScorerKind(frozen.Scorer());
  return out;
}

}  // namespace esd::core
