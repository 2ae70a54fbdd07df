// Whole-system configuration (paper Table I) shared by the cache models, the
// workload database and the resource managers.
#ifndef QOSRM_ARCH_SYSTEM_CONFIG_HH
#define QOSRM_ARCH_SYSTEM_CONFIG_HH

#include <cstdint>

#include "arch/core_config.hh"
#include "arch/dvfs.hh"

namespace qosrm::arch {

/// LLC way-allocation bounds. The shared LLC provides 8 ways x cores in
/// total (2 MB x cores, 256 KB per way); each core may hold between 2 and 16
/// ways (256 KB - 4 MB), baseline is the even split of 8 ways.
struct LlcConfig {
  int ways_per_core_baseline = 8;
  int min_ways = 2;
  int max_ways = 16;

  /// Total way budget for an n-core system: Sum_j w_j = 8 n.
  [[nodiscard]] int total_ways(int cores) const noexcept {
    return ways_per_core_baseline * cores;
  }
  [[nodiscard]] int num_allocations() const noexcept {
    return max_ways - min_ways + 1;
  }
  bool operator==(const LlcConfig&) const = default;
};

/// Memory-bandwidth partition bounds (the CBP companion knob,
/// arXiv:2102.11528). The memory controller's bandwidth is divided into
/// `shares_per_core_baseline` shares per core; a core granted fewer shares
/// than its baseline sees its effective DRAM latency inflated by queuing
/// contention, one granted more sees it deflated (bw_latency_scale below).
/// The default single share per core with min == max == 1 is the DEGENERATE
/// case: the share axis has exactly one point, every core always holds its
/// baseline share with scale exactly 1.0, and the whole optimizer stack
/// behaves bit-identically to the ways-only system.
struct BwConfig {
  int shares_per_core_baseline = 1;
  int min_shares = 1;
  int max_shares = 1;
  /// Queuing-contention weight of the effective-latency model: the latency
  /// multiplier at b granted shares is 1 + contention * (b_base/b - 1).
  double contention = 0.5;

  /// Total share budget for an n-core system: Sum_j b_j = baseline * n.
  [[nodiscard]] int total_shares(int cores) const noexcept {
    return shares_per_core_baseline * cores;
  }
  [[nodiscard]] int num_allocations() const noexcept {
    return max_shares - min_shares + 1;
  }
  /// True for the default unpartitioned-bandwidth configuration.
  [[nodiscard]] bool degenerate() const noexcept {
    return shares_per_core_baseline == 1 && min_shares == 1 && max_shares == 1;
  }
  bool operator==(const BwConfig&) const = default;
};

/// Effective DRAM-latency multiplier at `b` granted shares: exactly 1.0 at
/// the baseline share (b_base/b evaluates to 1.0, so the scale - and every
/// product taken with it - is bit-identical to the unscaled value),
/// hyperbolically rising as the share shrinks, floored at 1 - contention as
/// b grows. `b` clamps to the configured bounds like way lookups clamp to
/// the ATD range.
[[nodiscard]] inline double bw_latency_scale(const BwConfig& bw, int b) noexcept {
  const int clamped =
      b < bw.min_shares ? bw.min_shares : (b > bw.max_shares ? bw.max_shares : b);
  return 1.0 + bw.contention *
                   (static_cast<double>(bw.shares_per_core_baseline) /
                        static_cast<double>(clamped) -
                    1.0);
}

/// Full system description.
struct SystemConfig {
  int cores = 4;
  LlcConfig llc{};
  BwConfig bw{};
  double interval_instructions = 100e6;  ///< RM invocation granularity
  double mem_latency_s = 130e-9;         ///< DRAM base latency
  double qos_alpha = 1.0;                ///< QoS relaxation (paper uses 1)

  [[nodiscard]] int total_ways() const noexcept { return llc.total_ways(cores); }
  [[nodiscard]] int total_shares() const noexcept {
    return bw.total_shares(cores);
  }
  bool operator==(const SystemConfig&) const = default;
};

/// Maps the CLI-facing `--bw-shares=N` knob (baseline shares per core) onto
/// the partition bounds: N == 1 keeps the degenerate single-point axis;
/// N >= 2 spreads +-max(1, N/4) around the fair share. The axis is
/// deliberately NARROW - every share level multiplies the local-optimizer
/// grid and quadratically widens the global DP's feasible-pair space, and
/// the per-interval invoke must stay within a small constant factor of the
/// ways-only cost (pinned by the CI bench budget; see the README).
[[nodiscard]] inline BwConfig bw_config_for_shares(int shares_per_core) noexcept {
  BwConfig bw;
  bw.shares_per_core_baseline = shares_per_core < 1 ? 1 : shares_per_core;
  if (shares_per_core <= 1) {
    bw.min_shares = 1;
    bw.max_shares = 1;
  } else {
    const int delta = shares_per_core / 4 > 0 ? shares_per_core / 4 : 1;
    bw.min_shares =
        shares_per_core - delta > 0 ? shares_per_core - delta : 1;
    bw.max_shares = shares_per_core + delta;
  }
  return bw;
}

}  // namespace qosrm::arch

#endif  // QOSRM_ARCH_SYSTEM_CONFIG_HH
