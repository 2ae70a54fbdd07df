// Characterizes the shared test databases into a snapshot directory, so the
// `slow` test binaries load them (tests/support/shared_db.hh) instead of each
// building its own. CTest runs it as the qosdb_cache_setup fixture.
//
//   build_db_cache DIR CONFIG...     CONFIG = CORES or CORES:BW_SHARES
//
// It always characterizes and never loads: every snapshot in DIR is deleted
// first, so no snapshot outlives the build of the code that wrote it. The
// suite is characterized once per distinct CharacterizationSystem, and each
// configuration's database is built from those stats, which is byte for
// byte what a cold build of that configuration writes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "support/shared_db.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace {

bool parse_config(const std::string& arg, int& cores, int& shares) {
  char* end = nullptr;
  const long c = std::strtol(arg.c_str(), &end, 10);
  long b = 1;
  if (*end == ':') b = std::strtol(end + 1, &end, 10);
  if (*end != '\0' || c < 1 || c > 4096 || b < 1 || b > 64) return false;
  cores = static_cast<int>(c);
  shares = static_cast<int>(b);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace qosrm;
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s DIR CORES[:BW_SHARES]...\n", argv[0]);
    return 2;
  }
  const fs::path dir = argv[1];
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 1;
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".qosdb") != std::string::npos) {
      fs::remove(entry.path(), ec);
    }
  }
  const power::PowerModel power;
  const workload::SpecSuite& suite = workload::spec_suite();
  const workload::SimDbOptions options;
  std::vector<std::pair<workload::CharacterizationSystem,
                        std::vector<std::vector<workload::PhaseStats>>>>
      characterized;
  for (int i = 2; i < argc; ++i) {
    int cores = 0;
    int shares = 0;
    if (!parse_config(argv[i], cores, shares)) {
      std::fprintf(stderr, "bad config '%s' (want CORES or CORES:BW_SHARES)\n", argv[i]);
      return 2;
    }
    const arch::SystemConfig system = testing::shared_db_system(cores, shares);
    const workload::CharacterizationSystem inputs =
        workload::characterization_system(system);
    auto it = std::find_if(characterized.begin(), characterized.end(),
                           [&](const auto& entry) { return entry.first == inputs; });
    if (it == characterized.end()) {
      characterized.emplace_back(inputs,
                                 workload::characterize_suite(suite, inputs, options));
      it = characterized.end() - 1;
    }
    const workload::SimDb db(suite, system, power, options.phase, it->second);
    const std::string path = workload::db_cache_path(dir.string(), cores, shares);
    std::string error;
    if (!workload::save_simdb(db, path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
