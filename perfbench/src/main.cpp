// perfbench: the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload query-u8|build-f32|serve-open --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Prints a machine header, the workload's figures by name and unit, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// per-layer probes, reports the per-layer metrics and writes every span to
// DIR. Exits 1 on any correctness violation, 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "parlay/scheduler.h"

#include "core/simd/caps.h"

#include "bench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload query-u8|build-f32|serve-open "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return usage();

  void (*run)(const perfbench::Options&, perfbench::Result&) = nullptr;
  if (opt.workload == "query-u8") run = perfbench::run_query_u8;
  if (opt.workload == "build-f32") run = perfbench::run_build_f32;
  if (opt.workload == "serve-open") run = perfbench::run_serve_open;
  if (run == nullptr) return usage();

  // Machine header: figures from different machines, SIMD tiers or build
  // types are not comparable.
  std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("# workers: %u\n", parlay::num_workers());
  std::printf("# simd_caps: %s\n", ann::simd::caps_string().c_str());
  std::printf("# simd_tier: %s\n",
              ann::simd::tier_name(ann::simd::active_tier()));
  std::printf("# build_type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# workload: %s seed: %llu seconds: %g trace: %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  perfbench::Tracer::get().set_enabled(opt.trace);
  perfbench::Result res;
  try {
    run(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.trace && !opt.trace_dir.empty()) {
    perfbench::Tracer::get().write(opt.trace_dir + "/" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".jsonl");
  }
  std::fflush(stderr);
  res.print_json();
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
