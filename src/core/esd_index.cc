#include "core/esd_index.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

EdgeId EsdIndex::RegisterEdge(Edge uv) {
  if (!free_ids_.empty()) {
    EdgeId e = free_ids_.back();
    free_ids_.pop_back();
    edges_[e] = uv;
    live_[e] = 1;
    edge_sizes_[e].clear();
    return e;
  }
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(uv);
  edge_sizes_.emplace_back();
  live_.push_back(1);
  return e;
}

void EsdIndex::UnregisterEdge(EdgeId e) {
  assert(live_[e] && edge_sizes_[e].empty());
  live_[e] = 0;
  free_ids_.push_back(e);
}

void EsdIndex::RemoveEntries(EdgeId e, const std::vector<uint32_t>& sizes) {
  if (sizes.empty()) return;
  const uint32_t max_size = sizes.back();
  for (auto it = lists_.begin();
       it != lists_.end() && it->first <= max_size; ++it) {
    uint32_t score = static_cast<uint32_t>(
        sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), it->first));
    bool erased = it->second.Erase(Entry{score, e});
    assert(erased);
    (void)erased;
    --num_entries_;
  }
  // Update owner counts for e's distinct sizes; drop lists that lost their
  // last owner (queries then fall through to the next larger c, which by
  // Theorem 4 yields identical answers).
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && sizes[i] == sizes[i - 1]) continue;
    auto cnt = size_owner_count_.find(sizes[i]);
    assert(cnt != size_owner_count_.end());
    if (--cnt->second == 0) {
      size_owner_count_.erase(cnt);
      auto list_it = lists_.find(sizes[i]);
      assert(list_it != lists_.end());
      num_entries_ -= list_it->second.size();
      lists_.erase(list_it);
    }
  }
}

void EsdIndex::InsertEntries(EdgeId e, const std::vector<uint32_t>& sizes) {
  if (sizes.empty()) return;
  // First materialize lists for never-before-seen sizes by cloning the next
  // larger list: exact because no edge currently owns a component size in
  // the gap (see DESIGN.md §3 and the proof of Theorem 4).
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && sizes[i] == sizes[i - 1]) continue;
    uint32_t s = sizes[i];
    auto [cnt, inserted] = size_owner_count_.try_emplace(s, 0);
    ++cnt->second;
    if (inserted) {
      auto next = lists_.upper_bound(s);
      List clone = next == lists_.end() ? List() : next->second;
      num_entries_ += clone.size();
      lists_.emplace(s, std::move(clone));
    }
  }
  const uint32_t max_size = sizes.back();
  for (auto it = lists_.begin();
       it != lists_.end() && it->first <= max_size; ++it) {
    uint32_t score = static_cast<uint32_t>(
        sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), it->first));
    bool ok = it->second.Insert(Entry{score, e});
    assert(ok);
    (void)ok;
    ++num_entries_;
  }
}

void EsdIndex::SetEdgeSizes(EdgeId e, std::vector<uint32_t> sorted_sizes) {
  assert(e < edge_sizes_.size() && live_[e]);
  assert(std::is_sorted(sorted_sizes.begin(), sorted_sizes.end()));
  if (edge_sizes_[e] == sorted_sizes) return;
  RemoveEntries(e, edge_sizes_[e]);
  InsertEntries(e, sorted_sizes);
  edge_sizes_[e] = std::move(sorted_sizes);
}

void EsdIndex::BulkLoad(std::vector<Edge> edges,
                        std::vector<std::vector<uint32_t>> sizes_per_edge) {
  obs::PhaseSeries phases;
  phases.Begin("build.hlist_build");
  assert(edges.size() == sizes_per_edge.size());
  lists_.clear();
  size_owner_count_.clear();
  free_ids_.clear();
  num_entries_ = 0;
  edges_ = std::move(edges);
  edge_sizes_ = std::move(sizes_per_edge);
  live_.assign(edges_.size(), 1);

  // Owner counts and the distinct size set C.
  for (const auto& sizes : edge_sizes_) {
    assert(std::is_sorted(sizes.begin(), sizes.end()));
    for (size_t i = 0; i < sizes.size(); ++i) {
      if (i > 0 && sizes[i] == sizes[i - 1]) continue;
      ++size_owner_count_[sizes[i]];
    }
  }
  std::vector<uint32_t> all_c;
  all_c.reserve(size_owner_count_.size());
  for (const auto& [c, cnt] : size_owner_count_) all_c.push_back(c);

  // Group edges by the maximum component size of their ego-network, then
  // sweep c from largest to smallest, keeping the set of edges with
  // max >= c "active" and emitting one sorted run per list.
  std::map<uint32_t, std::vector<EdgeId>, std::greater<>> by_max;
  for (EdgeId e = 0; e < edge_sizes_.size(); ++e) {
    if (!edge_sizes_[e].empty()) {
      by_max[edge_sizes_[e].back()].push_back(e);
    }
  }
  std::vector<EdgeId> active;
  auto max_it = by_max.begin();
  std::vector<Entry> run;
  for (auto c_it = all_c.rbegin(); c_it != all_c.rend(); ++c_it) {
    uint32_t c = *c_it;
    while (max_it != by_max.end() && max_it->first >= c) {
      active.insert(active.end(), max_it->second.begin(),
                    max_it->second.end());
      ++max_it;
    }
    run.clear();
    run.reserve(active.size());
    for (EdgeId e : active) {
      const auto& sizes = edge_sizes_[e];
      uint32_t score = static_cast<uint32_t>(
          sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), c));
      run.push_back(Entry{score, e});
    }
    std::sort(run.begin(), run.end(), [](const Entry& a, const Entry& b) {
      return EntryLess()(a, b);
    });
    List list;
    list.BuildFromSorted(run);
    num_entries_ += list.size();
    lists_.emplace(c, std::move(list));
  }
}

TopKResult EsdIndex::Query(uint32_t k, uint32_t tau,
                           bool pad_with_zero_edges) const {
  TopKResult out;
  if (k == 0 || tau == 0) return out;
  counters_.AddQuery();
  counters_.AddSlabSearch();
  auto it = lists_.lower_bound(tau);
  if (it != lists_.end()) {
    it->second.ForEachInOrder([&](const Entry& entry) {
      if (out.size() >= k) return false;
      out.push_back(ScoredEdge{edges_[entry.e], entry.score});
      return true;
    });
  }
  // Only the H(c) prefix counts as entries scanned, as in the frozen
  // engine: zero-padded filler edges never touch a list.
  counters_.AddEntriesScanned(out.size());
  if (pad_with_zero_edges && out.size() < k) {
    // Documented deterministic padding order: lowest-id live edges first,
    // skipping edges already reported (FrozenEsdIndex pads identically).
    // out.size() < k means the whole H(c) list was reported, and H(c) is
    // exactly the edges with max(C_e) >= c, so "already reported" is a test
    // on the edge's own multiset.
    EdgeId e = 0;
    for (; e < edges_.size() && out.size() < k; ++e) {
      if (!live_[e]) continue;
      const std::vector<uint32_t>& sizes = edge_sizes_[e];
      if (it != lists_.end() && !sizes.empty() && sizes.back() >= it->first) {
        continue;
      }
      out.push_back(ScoredEdge{edges_[e], 0});
    }
    counters_.AddPadEdgesWalked(e);
  }
  return out;
}

uint64_t EsdIndex::CountWithScoreAtLeast(uint32_t tau,
                                         uint32_t min_score) const {
  if (min_score == 0) return NumRegisteredEdges();
  if (tau == 0) return 0;
  counters_.AddSlabSearch();
  auto it = lists_.lower_bound(tau);
  if (it == lists_.end()) return 0;
  // Entries are ordered by score descending; everything ranked before the
  // probe (min_score - 1, edge 0) has score >= min_score.
  return it->second.Rank(Entry{min_score - 1, 0});
}

TopKResult EsdIndex::QueryWithScoreAtLeast(uint32_t tau, uint32_t min_score,
                                           size_t limit) const {
  TopKResult out;
  if (tau == 0 || min_score == 0) return out;
  counters_.AddSlabSearch();
  auto it = lists_.lower_bound(tau);
  if (it == lists_.end()) return out;
  it->second.ForEachInOrder([&](const Entry& entry) {
    if (entry.score < min_score) return false;
    if (limit > 0 && out.size() >= limit) return false;
    out.push_back(ScoredEdge{edges_[entry.e], entry.score});
    return true;
  });
  counters_.AddEntriesScanned(out.size());
  return out;
}

uint32_t EsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  const auto& sizes = edge_sizes_[e];
  return static_cast<uint32_t>(
      sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), tau));
}

std::vector<uint32_t> EsdIndex::DistinctSizes() const {
  std::vector<uint32_t> out;
  out.reserve(lists_.size());
  for (const auto& [c, list] : lists_) out.push_back(c);
  return out;
}

uint64_t EsdIndex::MemoryBytes() const {
  // Treap node: Entry (8) + priority/left/right/size (16).
  uint64_t bytes = num_entries_ * 24;
  for (const auto& sizes : edge_sizes_) {
    bytes += sizes.size() * sizeof(uint32_t);
  }
  bytes += edges_.size() * (sizeof(Edge) + sizeof(uint8_t));
  return bytes;
}

}  // namespace esd::core
