#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

// Seed-driven input streams of the benchmark. Every stream is a pure
// function of (seed, graph): the same seed gives byte-identical requests
// and updates, and the program under test only ever sees the generated
// values, never the seed.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "graph/graph.h"
#include "live/live_index.h"
#include "util/rng.h"

namespace perfbench {

/// One top-k request: threshold tau and result size k (always padded).
struct Request {
  uint32_t tau = 1;
  uint32_t k = 1;
};

/// Zipf(s = 1) sampler over ranks 0..n-1, weight 1 / (rank + 1).
class Zipf {
 public:
  explicit Zipf(size_t n);
  size_t Sample(esd::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Point-query mix of wire-point and of live-write's reads: Zipf over a
/// tau ladder and, independently, over a k ladder with k <= 100. The whole
/// key space is a few dozen (tau, k) pairs, so the result cache holds all
/// of it.
class PointMix {
 public:
  explicit PointMix(uint64_t seed);
  Request Next();

 private:
  esd::util::Rng rng_;
  Zipf tau_zipf_;
  Zipf k_zipf_;
};

/// Deep-scan mix: tau uniform in [1, 12], k log-uniform in [kDeepMinK,
/// kDeepMaxK]. On livejournal-s the H(tau) slab is longer than k for small
/// tau (a long prefix scan) and shorter for most larger tau (a long
/// zero-padding walk), so both engine phases do real work. The key space
/// is large enough that the result cache and the intra-batch dedup almost
/// never hit.
class DeepMix {
 public:
  static constexpr uint32_t kDeepMinK = 200;
  static constexpr uint32_t kDeepMaxK = 20000;
  explicit DeepMix(uint64_t seed);
  Request Next();

 private:
  esd::util::Rng rng_;
};

/// Stationary edge churn over a graph for live-write. Each step deletes a
/// uniformly drawn present edge; once more than `lag` edges are out, the
/// steps alternate with re-inserting the edge deleted longest ago. Every
/// update therefore changes the graph (no duplicate inserts, no deletes of
/// absent edges), each edge comes back after exactly lag + 1 later
/// deletes, and the edge count stays within [m - lag - 1, m].
class ChurnStream {
 public:
  ChurnStream(const esd::graph::Graph& g, uint64_t seed, size_t lag);

  esd::live::LiveUpdate Next();
  /// Fills `out` with the next `n` updates.
  void NextBatch(size_t n, std::vector<esd::live::LiveUpdate>* out);

  size_t NumPresent() const { return present_.size(); }
  /// The current edge set (unordered).
  const std::vector<esd::graph::Edge>& PresentEdges() const {
    return present_;
  }

 private:
  esd::util::Rng rng_;
  size_t lag_;
  bool last_was_delete_ = false;
  std::vector<esd::graph::Edge> present_;
  std::deque<esd::graph::Edge> absent_;
};

/// Stream seeds derived from the run seed, one per consumer, so that two
/// consumers of the same seed never share a random sequence.
inline uint64_t StreamSeed(uint64_t run_seed, uint64_t stream) {
  return esd::util::Mix64(run_seed * 0x9E3779B97F4A7C15ULL + stream);
}

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
