#include "core/edge_dsu_arena.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>

#include "obs/metrics.h"

namespace esd::core {

using graph::DegreeOrderedDag;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

namespace {

constexpr uint64_t kVertexGrain = 64;
constexpr uint64_t kEdgeGrain = 512;

// Runs fn over [0, n) in chunks on `pool`, or as one chunk without one.
void ForChunks(util::ThreadPool* pool, uint64_t n, uint64_t grain,
               const std::function<void(uint64_t, uint64_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelForChunked(0, n, grain, fn);
  } else {
    fn(0, n);
  }
}

// The calling thread's mark array over vertex ids, all zero between uses.
// It lives as long as the thread, so a chunk never allocates n entries.
std::vector<uint32_t>& MarkArray(size_t n) {
  thread_local std::vector<uint32_t> mark;
  if (mark.size() < n) mark.assign(n, 0);
  return mark;
}

// Calls fn(uv, uw, vw, u, v, w) once for every triangle whose lowest-ranked
// vertex u lies in [lo, hi): mark N+(u), then every arc v -> w with v in
// N+(u) and w marked closes one.
template <typename Fn>
void ForEachTriangleFrom(const DegreeOrderedDag& dag, uint64_t lo,
                         uint64_t hi, Fn&& fn) {
  std::vector<uint32_t>& mark = MarkArray(dag.NumVertices());
  for (VertexId u = static_cast<VertexId>(lo); u < hi; ++u) {
    auto nu = dag.OutNeighbors(u);
    if (nu.size() < 2) continue;
    auto eu = dag.OutEdges(u);
    for (uint32_t i = 0; i < nu.size(); ++i) mark[nu[i]] = i + 1;
    for (size_t i = 0; i < nu.size(); ++i) {
      auto nv = dag.OutNeighbors(nu[i]);
      auto ev = dag.OutEdges(nu[i]);
      for (size_t j = 0; j < nv.size(); ++j) {
        if (const uint32_t k = mark[nv[j]]; k != 0) {
          fn(eu[i], eu[k - 1], ev[j], u, nu[i], nv[j]);
        }
      }
    }
    for (VertexId w : nu) mark[w] = 0;
  }
}

}  // namespace

EdgeDsuArena::EdgeDsuArena(const Graph& g, util::ThreadPool* pool)
    : EdgeDsuArena(DegreeOrderedDag(g), pool) {}

EdgeDsuArena::EdgeDsuArena(const DegreeOrderedDag& dag,
                           util::ThreadPool* pool) {
  const EdgeId m = dag.NumEdges();
  const VertexId n = dag.NumVertices();
  // Pass 1: |N(uv)| per edge. An edge collects members from triangles
  // found under different lowest vertices, hence the atomics.
  std::vector<std::atomic<uint32_t>> cursor(m);
  ForChunks(pool, n, kVertexGrain, [&](uint64_t lo, uint64_t hi) {
    ForEachTriangleFrom(dag, lo, hi,
                        [&](EdgeId uv, EdgeId uw, EdgeId vw, VertexId,
                            VertexId, VertexId) {
                          cursor[uv].fetch_add(1, std::memory_order_relaxed);
                          cursor[uw].fetch_add(1, std::memory_order_relaxed);
                          cursor[vw].fetch_add(1, std::memory_order_relaxed);
                        });
  });
  // Each cursor then moves to the end of its edge's slice; slots are
  // uint32 (parent_), so every absolute position fits.
  offsets_.resize(m + 1);
  offsets_[0] = 0;
  for (EdgeId e = 0; e < m; ++e) {
    offsets_[e + 1] =
        offsets_[e] + cursor[e].load(std::memory_order_relaxed);
    cursor[e].store(static_cast<uint32_t>(offsets_[e + 1]),
                    std::memory_order_relaxed);
  }
  const uint64_t total = offsets_[m];
  assert(total <= UINT32_MAX);
  members_.resize(total);
  parent_.resize(total);
  count_.resize(total);

  // Pass 2: the same enumeration writes each member at its edge's cursor,
  // which counts back down to the slice's start.
  auto put = [&](EdgeId e, VertexId w) {
    members_[cursor[e].fetch_sub(1, std::memory_order_relaxed) - 1] = w;
  };
  ForChunks(pool, n, kVertexGrain, [&](uint64_t lo, uint64_t hi) {
    ForEachTriangleFrom(dag, lo, hi,
                        [&](EdgeId uv, EdgeId uw, EdgeId vw, VertexId u,
                            VertexId v, VertexId w) {
                          put(uv, w);
                          put(uw, v);
                          put(vw, u);
                        });
  });

  // Thread interleaving decides the order inside a slice; sorting it makes
  // the arena the same for every schedule.
  ForChunks(pool, m, kEdgeGrain, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      std::sort(members_.begin() + offsets_[e],
                members_.begin() + offsets_[e + 1]);
      for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
        parent_[s] = static_cast<uint32_t>(s);
        count_[s] = 1;
      }
    }
  });

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry
      .GetGauge("esd_build_triangles",
                "Triangles enumerated by the last index build's arena fill")
      .Set(static_cast<double>(total / 3));
  registry
      .GetGauge("esd_build_arena_members",
                "Disjoint-set members (common-neighbor slots) of the last "
                "index build's arena")
      .Set(static_cast<double>(total));
}

uint32_t EdgeDsuArena::SlotOf(EdgeId e, VertexId w) const {
  auto slice = Members(e);
  auto it = std::lower_bound(slice.begin(), slice.end(), w);
  assert(it != slice.end() && *it == w);
  return static_cast<uint32_t>(offsets_[e] + (it - slice.begin()));
}

uint32_t EdgeDsuArena::FindSlot(uint32_t s) {
  while (parent_[s] != s) {
    parent_[s] = parent_[parent_[s]];  // path halving
    s = parent_[s];
  }
  return s;
}

void EdgeDsuArena::Union(EdgeId e, VertexId a, VertexId b) {
  uint32_t ra = FindSlot(SlotOf(e, a));
  uint32_t rb = FindSlot(SlotOf(e, b));
  if (ra == rb) return;
  if (count_[ra] < count_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  count_[ra] += count_[rb];
}

std::vector<uint32_t> EdgeDsuArena::ComponentSizes(EdgeId e) {
  std::vector<uint32_t> sizes;
  for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    if (parent_[s] == s) sizes.push_back(count_[s]);
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

void EdgeDsuArena::PackComponentSizes(util::ThreadPool* pool,
                                      std::vector<uint64_t>* offsets,
                                      std::vector<uint32_t>* sizes) const {
  const size_t m = NumEdges();
  // Roots per edge, then a prefix sum, then each edge's run filled and
  // sorted in place.
  std::vector<uint64_t>& off = *offsets;
  off.assign(m + 1, 0);
  ForChunks(pool, m, kEdgeGrain, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      uint64_t roots = 0;
      for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
        roots += parent_[s] == s ? 1 : 0;
      }
      off[e + 1] = roots;
    }
  });
  for (size_t e = 0; e < m; ++e) off[e + 1] += off[e];
  sizes->resize(off[m]);
  ForChunks(pool, m, kEdgeGrain, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t e = lo; e < hi; ++e) {
      uint64_t out = off[e];
      for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
        if (parent_[s] == s) (*sizes)[out++] = count_[s];
      }
      std::sort(sizes->begin() + off[e], sizes->begin() + off[e + 1]);
    }
  });
}

util::KeyedDsu EdgeDsuArena::ToKeyedDsu(EdgeId e) {
  util::KeyedDsu out;
  auto slice = Members(e);
  out.Reserve(slice.size());
  for (VertexId w : slice) out.AddMember(w);
  for (uint64_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
    uint32_t root = FindSlot(static_cast<uint32_t>(s));
    if (root != s) out.Union(members_[s], members_[root]);
  }
  return out;
}

}  // namespace esd::core
