#include "graph/orientation.h"

#include <algorithm>

namespace esd::graph {

DegreeOrderedDag::DegreeOrderedDag(const Graph& g) {
  const VertexId n = g.NumVertices();
  // Rank by (degree, id): a counting sort on degree, stable in id.
  std::vector<uint32_t> next(static_cast<size_t>(g.MaxDegree()) + 2, 0);
  for (VertexId u = 0; u < n; ++u) ++next[g.Degree(u) + 1];
  for (size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
  rank_.resize(n);
  for (VertexId u = 0; u < n; ++u) rank_[u] = next[g.Degree(u)]++;

  // CSR of out-neighbors. Each undirected edge contributes one arc from the
  // lower-ranked endpoint. Filtering each adjacency list (sorted by id, with
  // parallel edge ids) keeps the out-lists sorted by vertex id.
  offsets_.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t out = 0;
    for (VertexId w : g.Neighbors(u)) out += rank_[u] < rank_[w] ? 1 : 0;
    offsets_[u + 1] = offsets_[u] + out;
    max_out_degree_ = std::max(max_out_degree_, out);
  }
  adj_vertex_.resize(g.NumEdges());
  adj_edge_.resize(g.NumEdges());
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = g.Neighbors(u);
    auto eids = g.IncidentEdges(u);
    uint64_t pos = offsets_[u];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (rank_[u] < rank_[nbrs[i]]) {
        adj_vertex_[pos] = nbrs[i];
        adj_edge_[pos++] = eids[i];
      }
    }
  }
}

}  // namespace esd::graph
