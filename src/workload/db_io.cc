#include "workload/db_io.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/binary_io.hh"
#include "common/file_util.hh"
#include "common/str.hh"

namespace qosrm::workload {

namespace {

// "QOSRMDB\0" little-endian.
constexpr std::uint64_t kMagic = 0x0042444D52534F51ULL;

// LLC geometry the fingerprint has always hashed: 64 B blocks, 4096 sets
// (256 KB per way) and a UMON sampling 1 set in 64. No model reads it (the
// RM gets each phase's exact recency curve), but the values keep their
// place in the hash so every stamped fingerprint and snapshot stays valid.
constexpr std::int64_t kLlcBlockBytes = 64;
constexpr std::int64_t kLlcSets = 4096;
constexpr std::int64_t kLlcAtdSampledSets = 64;

void hash_stack_profile(Fnv1a64& h, const StackProfile& p) {
  for (const double w : p.hit_weight) h.add_f64(w);
  h.add_f64(p.cold_weight);
}

void hash_phase_params(Fnv1a64& h, const PhaseParams& p) {
  h.add_string(p.name);
  h.add_f64(p.weight);
  h.add_f64(p.lpki);
  hash_stack_profile(h, p.reuse);
  h.add_f64(p.dep_frac);
  h.add_f64(p.write_frac);
  h.add_f64(p.burst_size);
  h.add_f64(p.intra_gap);
  h.add_f64(p.ilp);
  h.add_f64(p.cpi_branch);
  h.add_f64(p.cpi_cache);
}

void write_phase_stats(BinaryWriter& w, const PhaseStats& st) {
  w.write_f64_vec(st.misses);
  for (const auto& lm : st.lm_true) w.write_f64_vec(lm);
  for (const auto& lm : st.lm_atd) w.write_f64_vec(lm);
  w.write_f64(st.interval_instructions);
  w.write_f64(st.llc_accesses);
  w.write_f64(st.write_frac);
  w.write_f64(st.scale);
  w.write_f64(st.ilp);
  w.write_f64(st.cpi_branch);
  w.write_f64(st.cpi_cache);
}

[[nodiscard]] PhaseStats read_phase_stats(BinaryReader& r) {
  PhaseStats st;
  st.misses = r.read_f64_vec();
  for (auto& lm : st.lm_true) lm = r.read_f64_vec();
  for (auto& lm : st.lm_atd) lm = r.read_f64_vec();
  st.interval_instructions = r.read_f64();
  st.llc_accesses = r.read_f64();
  st.write_frac = r.read_f64();
  st.scale = r.read_f64();
  st.ilp = r.read_f64();
  st.cpi_branch = r.read_f64();
  st.cpi_cache = r.read_f64();
  return st;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::uint64_t simdb_fingerprint(const SpecSuite& suite,
                                const arch::SystemConfig& system,
                                const PhaseStatsOptions& options) {
  Fnv1a64 h;
  h.add_u32(kSimDbSnapshotVersion);

  h.add_i64(system.cores);
  h.add_i64(system.llc.ways_per_core_baseline);
  h.add_i64(system.llc.min_ways);
  h.add_i64(system.llc.max_ways);
  h.add_i64(kLlcBlockBytes);
  h.add_i64(kLlcSets);
  h.add_i64(kLlcAtdSampledSets);
  h.add_f64(system.interval_instructions);
  h.add_f64(system.mem_latency_s);
  h.add_f64(system.qos_alpha);

  // The bandwidth-partition config is hashed only when non-degenerate: the
  // default unpartitioned system keeps the exact pre-CBP fingerprint (so
  // every existing snapshot, golden report and stamped fingerprint stays
  // valid), while any partitioned grid gets a distinct identity and can
  // never cross-merge with a ways-only one.
  if (!system.bw.degenerate()) {
    h.add_i64(system.bw.shares_per_core_baseline);
    h.add_i64(system.bw.min_shares);
    h.add_i64(system.bw.max_shares);
    h.add_f64(system.bw.contention);
  }

  h.add_i64(options.synth.sets);
  h.add_i64(options.synth.max_ways);
  h.add_f64(options.synth.represented_instructions);
  h.add_i64(options.mlp_index_bits);
  h.add_i64(options.atd_sample_period);
  // The arrival-emulation inputs are derived from the system but keep their
  // own place in the hash: moving them would invalidate every snapshot.
  const cache::ArrivalParams arrival =
      arrival_params(characterization_system(system));
  h.add_f64(arrival.dispatch_ipc);
  h.add_f64(arrival.mem_latency_cycles);
  h.add_i64(arrival.ways);

  h.add_i64(suite.size());
  for (int a = 0; a < suite.size(); ++a) {
    const AppProfile& app = suite.app(a);
    h.add_string(app.name);
    h.add_u64(app.trace_seed);
    h.add_i64(app.num_phases());
    for (const PhaseParams& phase : app.phases) hash_phase_params(h, phase);
    h.add_i64(app.length_intervals());
    for (const int p : app.phase_sequence) h.add_i64(p);
  }
  return h.digest();
}

bool save_simdb(const SimDb& db, const std::string& path, std::string* error) {
  // Write to a uniquely named sibling and rename into place: concurrent
  // writers (parallel test binaries, concurrent CLI runs) never expose a
  // partial file, and readers only ever see a complete snapshot or none.
  const std::string tmp_path = atomic_tmp_path(path);
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return fail(error, format("cannot open %s for writing", path.c_str()));

  BinaryWriter w(out);
  w.write_u64(kMagic);
  w.write_u32(kSimDbSnapshotVersion);
  w.write_u32(kByteOrderMark);
  w.write_u64(simdb_fingerprint(db.suite(), db.system(), db.phase_options()));

  const int apps = db.suite().size();
  w.write_u32(static_cast<std::uint32_t>(apps));
  for (int a = 0; a < apps; ++a) {
    const int phases = db.num_phases(a);
    w.write_u32(static_cast<std::uint32_t>(phases));
    for (int ph = 0; ph < phases; ++ph) write_phase_stats(w, db.stats(a, ph));
  }
  w.write_trailing_checksum();
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp_path.c_str());
    return fail(error, format("write to %s failed", path.c_str()));
  }
  out.close();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return fail(error, format("cannot move snapshot into place at %s", path.c_str()));
  }
  return true;
}

std::optional<SimDb> load_simdb(const SpecSuite& suite,
                                const arch::SystemConfig& system,
                                const power::PowerModel& power,
                                const PhaseStatsOptions& options,
                                const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    fail(error, format("cannot open %s for reading", path.c_str()));
    return std::nullopt;
  }

  BinaryReader r(in);
  const std::uint64_t magic = r.read_u64();
  if (!r.ok() || magic != kMagic) {
    fail(error, format("%s is not a SimDb snapshot (bad magic)", path.c_str()));
    return std::nullopt;
  }
  const std::uint32_t version = r.read_u32();
  if (!r.ok() || version != kSimDbSnapshotVersion) {
    fail(error, format("%s has snapshot version %u, expected %u", path.c_str(),
                       version, kSimDbSnapshotVersion));
    return std::nullopt;
  }
  const std::uint32_t bom = r.read_u32();
  if (!r.ok() || bom != kByteOrderMark) {
    fail(error,
         format("%s was written on a machine with different byte order", path.c_str()));
    return std::nullopt;
  }
  const std::uint64_t stored_fp = r.read_u64();
  const std::uint64_t expected_fp = simdb_fingerprint(suite, system, options);
  if (!r.ok() || stored_fp != expected_fp) {
    fail(error,
         format("%s is stale: snapshot fingerprint %016llx does not match the "
                "current suite/SystemConfig/PhaseStatsOptions (%016llx); "
                "rebuild the snapshot",
                path.c_str(), static_cast<unsigned long long>(stored_fp),
                static_cast<unsigned long long>(expected_fp)));
    return std::nullopt;
  }

  const std::uint32_t apps = r.read_u32();
  if (!r.ok() || static_cast<int>(apps) != suite.size()) {
    fail(error, format("%s is corrupt: app count %u, suite has %d", path.c_str(),
                       apps, suite.size()));
    return std::nullopt;
  }
  std::vector<std::vector<PhaseStats>> stats(apps);
  for (std::uint32_t a = 0; a < apps; ++a) {
    const std::uint32_t phases = r.read_u32();
    if (!r.ok() ||
        static_cast<int>(phases) != suite.app(static_cast<int>(a)).num_phases()) {
      fail(error, format("%s is corrupt: phase count mismatch for app %u",
                         path.c_str(), a));
      return std::nullopt;
    }
    stats[a].reserve(phases);
    for (std::uint32_t ph = 0; ph < phases; ++ph) {
      PhaseStats st = read_phase_stats(r);
      // Shape-check before the stats reach EvalTable/PhaseStats indexing:
      // the trailing checksum only proves the file matches itself, not that
      // an external writer produced well-formed arrays.
      const auto ways = static_cast<std::size_t>(options.synth.max_ways);
      bool well_formed = st.misses.size() == ways;
      for (const auto& lm : st.lm_true) well_formed &= lm.size() == ways;
      for (const auto& lm : st.lm_atd) well_formed &= lm.size() == ways;
      if (!r.ok() || !well_formed) {
        fail(error, format("%s is corrupt: malformed phase arrays for app %u",
                           path.c_str(), a));
        return std::nullopt;
      }
      stats[a].push_back(std::move(st));
    }
  }
  if (!r.ok() || !r.verify_trailing_checksum()) {
    fail(error, format("%s is corrupt (truncated or checksum mismatch)", path.c_str()));
    return std::nullopt;
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    fail(error, format("%s is corrupt (trailing bytes after checksum)", path.c_str()));
    return std::nullopt;
  }
  return SimDb(suite, system, power, options, std::move(stats));
}

std::string db_cache_path(const std::string& dir, int cores, int bw_shares) {
  const bool needs_sep = !dir.empty() && dir.back() != '/';
  if (bw_shares > 1) {
    // Partitioned-bandwidth snapshots carry a distinct name so a ways-only
    // cache is never probed (and fingerprint-rejected) for a CBP run.
    return format("%s%ssuite-c%d-b%d%s", dir.c_str(), needs_sep ? "/" : "",
                  cores, bw_shares, kSimDbSnapshotExtension);
  }
  return format("%s%ssuite-c%d%s", dir.c_str(), needs_sep ? "/" : "", cores,
                kSimDbSnapshotExtension);
}

SimDb warm_simdb(const SpecSuite& suite, const arch::SystemConfig& system,
                 const power::PowerModel& power, const SimDbOptions& options,
                 const std::string& path, DbCacheOutcome* outcome) {
  if (!path.empty()) {
    std::string error;
    std::ifstream probe(path, std::ios::binary);
    const bool exists = probe.good();
    probe.close();
    if (exists) {
      std::optional<SimDb> db =
          load_simdb(suite, system, power, options.phase, path, &error);
      if (db.has_value()) {
        if (outcome != nullptr) *outcome = DbCacheOutcome::Loaded;
        return std::move(*db);
      }
      std::fprintf(stderr, "warm_simdb: rejecting snapshot: %s; rebuilding\n",
                   error.c_str());
    }
    SimDb db(suite, system, power, options);
    if (!save_simdb(db, path, &error)) {
      std::fprintf(stderr, "warm_simdb: %s (continuing without cache)\n",
                   error.c_str());
      if (outcome != nullptr) *outcome = DbCacheOutcome::Built;
    } else if (outcome != nullptr) {
      *outcome = DbCacheOutcome::BuiltAndSaved;
    }
    return db;
  }
  if (outcome != nullptr) *outcome = DbCacheOutcome::Built;
  return SimDb(suite, system, power, options);
}

std::optional<DbCache> resolve_db_cache(const std::string& spec, int cores,
                                        int bw_shares, std::string* error) {
  DbCache cache;
  if (spec.empty()) return cache;
  std::error_code ec;
  cache.path = std::filesystem::is_directory(spec, ec)
                   ? db_cache_path(spec, cores, bw_shares)
                   : spec;
  cache.hit = std::ifstream(cache.path, std::ios::binary).good();
  if (!cache.hit && !probe_writable_atomic(cache.path, error)) {
    return std::nullopt;
  }
  return cache;
}

std::optional<SimDb> load_or_build_simdb(const DbCache& cache,
                                         const SpecSuite& suite,
                                         const arch::SystemConfig& system,
                                         const power::PowerModel& power,
                                         const SimDbOptions& options,
                                         std::string* error) {
  if (cache.hit) {
    return load_simdb(suite, system, power, options.phase, cache.path, error);
  }
  std::optional<SimDb> db(std::in_place, suite, system, power, options);
  if (!cache.path.empty() && !save_simdb(*db, cache.path, error)) {
    return std::nullopt;
  }
  return db;
}

}  // namespace qosrm::workload
