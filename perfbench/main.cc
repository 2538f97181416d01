// esd_perfbench: one run of one workload.
//
//   esd_perfbench --workload <wire-point|deep-scan|live-write|index-build>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                 [--trace-out <file>]
//
// Prints, as the last line of stdout, {"correct", "attempted", "failed",
// "metrics"} with every metric the run measured; run.py keeps the set that
// BENCHMARK.json names for the mode (end-to-end with --trace 0, per-layer
// with --trace 1). Exits 1 when a check failed or the run could not be
// made. run.py builds this program and calls it; see README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "obs/trace.h"
#include "perfbench.h"

namespace {

using perfbench::Options;
using perfbench::RunRecord;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "esd_perfbench: %s\nusage: esd_perfbench --workload "
               "<wire-point|deep-scan|live-write|index-build> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workdir.empty()) Usage("--workdir is required");
  if (!(opts.seconds > 0)) Usage("--seconds must be positive");
  std::filesystem::create_directories(opts.workdir);

  // Spans (the benchmark's own and the library's) are recorded only in the
  // traced run; end-to-end numbers come from untraced runs.
  esd::obs::Tracer::Global().SetEnabled(opts.trace);

  RunRecord record;
  if (opts.workload == "wire-point") {
    perfbench::RunWirePoint(opts, &record);
  } else if (opts.workload == "deep-scan") {
    perfbench::RunDeepScan(opts, &record);
  } else if (opts.workload == "live-write") {
    perfbench::RunLiveWrite(opts, &record);
  } else if (opts.workload == "index-build") {
    perfbench::RunIndexBuild(opts, &record);
  } else {
    Usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  if (record.attempted == 0) {
    std::fprintf(stderr, "esd_perfbench: no op was attempted\n");
    return 1;
  }
  perfbench::Put(&record.metrics, "ok_share",
                 static_cast<double>(record.attempted - record.failed) /
                     static_cast<double>(record.attempted),
                 "ratio");
  if (opts.trace) {
    perfbench::Put(
        &record.metrics, "trace.spans",
        static_cast<double>(esd::obs::Tracer::Global().NumEventsRecorded()),
        "count");
    std::string error;
    if (!trace_out.empty() &&
        !esd::obs::Tracer::Global().WriteChromeTrace(trace_out, &error)) {
      std::fprintf(stderr, "esd_perfbench: trace not written: %s\n",
                   error.c_str());
    }
  }

  std::printf("%s\n", perfbench::ResultJson(record).c_str());
  std::fflush(stdout);
  return record.correct ? 0 : 1;
}
