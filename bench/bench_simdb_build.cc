// Micro-benchmark for the simulation-database build path: cold trace-driven
// characterization vs restore from a binary snapshot (workload/db_io.hh).
// Every --db-cache run of the CLIs, bench and slow test suite takes the
// snapshot path, so this tracks the speedup in the perf trajectory. It also
// prints the lane width the leading-miss kernels ran at (simd::lane_width).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "common/cli.hh"
#include "common/simd.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"

using namespace qosrm;
using Clock = std::chrono::steady_clock;

namespace {

constexpr CliFlag kFlags[] = {
    {"cores", CliFlag::kInt, "N", "2", {}, "cores of the characterized system"},
    {"loads", CliFlag::kInt, "N", "5", {}, "timed snapshot loads"},
    {"path", CliFlag::kText, "PATH", "bench_simdb.qosdb", {},
     "where the snapshot is written"},
    {"threads", CliFlag::kInt, "N", "0", {},
     "lanes of the cold build; 0 = hardware concurrency"},
    {"keep", CliFlag::kBool, "", "false", {},
     "leave the snapshot file behind"},
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  const int cores = args.get_int32("cores");
  const int loads = args.get_int32("loads");
  const std::string path = args.get("path");

  arch::SystemConfig system;
  system.cores = cores;
  const power::PowerModel power;
  const workload::SpecSuite& suite = workload::spec_suite();
  workload::SimDbOptions options;
  options.threads = args.get_int32("threads");

  std::printf("=== SimDb build vs snapshot load (%d apps, %d cores) ===\n\n",
              suite.size(), cores);

  const auto t_build = Clock::now();
  const workload::SimDb db(suite, system, power, options);
  const double build_s = secs_since(t_build);
  std::printf("cold characterization: %8.1f ms\n", build_s * 1e3);
  std::printf("leading-miss lanes:    %8d\n", simd::lane_width());

  std::string error;
  const auto t_save = Clock::now();
  if (!save_simdb(db, path, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot save:         %8.1f ms -> %s\n",
              secs_since(t_save) * 1e3, path.c_str());

  double best_load_s = 1e300;
  for (int i = 0; i < loads; ++i) {
    const auto t_load = Clock::now();
    const std::optional<workload::SimDb> loaded =
        load_simdb(suite, system, power, options.phase, path, &error);
    const double load_s = secs_since(t_load);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return 1;
    }
    best_load_s = std::min(best_load_s, load_s);
    std::printf("snapshot load #%d:      %8.1f ms\n", i + 1, load_s * 1e3);
  }

  std::printf("\nspeedup (build / best load): %.0fx\n", build_s / best_load_s);
  if (!args.get_bool("keep")) std::remove(path.c_str());
  return 0;
}
