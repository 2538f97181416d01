// Exp-3 / Fig. 7: speedup of the parallel index construction (PESDIndex+)
// with t = 1..20 threads on pokec-s and livejournal-s.
//
// NOTE: speedup can only grow while t stays at or below the host's hardware
// threads (printed first); larger t oversubscribes the host and only
// exercises the code path (striped-lock unions, edge-parallel enumeration).
// The timed builder emits treaps, and their H(c) bulk load is serial, so
// it bounds the curve: on a 4-thread host t=4 reaches about 1.6-2.1x.

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/parallel_builder.h"

int main() {
  using namespace esd;

  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  for (const char* name : {"pokec-s", "livejournal-s"}) {
    gen::Dataset d = bench::Load(name);
    std::printf("== %s (n=%u, m=%u)\n", name, d.graph.NumVertices(),
                d.graph.NumEdges());
    std::printf("%8s %12s %9s\n", "threads", "time (ms)", "speedup");
    double t1 = 0;
    for (unsigned t : {1u, 2u, 4u, 8u, 16u, 20u}) {
      double secs =
          bench::TimeOnce([&] { core::BuildIndexParallel(d.graph, t); });
      if (t == 1) t1 = secs;
      std::printf("%8u %12.1f %8.2fx\n", t, secs * 1e3, t1 / secs);
    }
    std::printf("\n");
  }
  return 0;
}
