// The synthetic stand-in for the paper's SPEC CPU2006 suite.
//
// 27 applications named after the SPEC benchmarks the paper uses (calculix
// and milc are excluded there too). Parameters are calibrated per intended
// category so that the paper's own classification criteria (Section IV-C,
// reproduced in workload/classify.hh) sort them into Table II:
//
//   CS-PS: tonto mcf omnetpp soplex sphinx3
//   CS-PI: bzip2 gcc gobmk gromacs h264ref hmmer xalancbmk
//   CI-PS: namd zeusmp GemsFDTD bwaves leslie3d libquantum wrf
//   CI-PI: cactusADM dealII gamess perlbench povray sjeng astar lbm
//
// Each application has several phases (perturbed variants of its base
// behaviour, standing in for SimPoint regions) plus a deterministic phase
// sequence.
#ifndef QOSRM_WORKLOAD_SPEC_SUITE_HH
#define QOSRM_WORKLOAD_SPEC_SUITE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hh"
#include "workload/app_profile.hh"

namespace qosrm::workload {

/// Application category (paper Section II).
enum class Category { CS_PS = 0, CS_PI = 1, CI_PS = 2, CI_PI = 3 };

inline constexpr int kNumCategories = 4;

[[nodiscard]] const char* category_name(Category c) noexcept;

/// The full 27-application suite, built once (deterministic).
class SpecSuite {
 public:
  SpecSuite();

  [[nodiscard]] const std::vector<AppProfile>& apps() const noexcept { return apps_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(apps_.size()); }
  [[nodiscard]] const AppProfile& app(int idx) const {
    QOSRM_CHECK(idx >= 0 && idx < size());
    return apps_[static_cast<std::size_t>(idx)];
  }

  /// Index of the application named `name` (-1 if absent).
  [[nodiscard]] int index_of(const std::string& name) const;

  /// The category the suite was calibrated to produce for app `idx` (the
  /// classifier in workload/classify.hh must agree; tests enforce this).
  [[nodiscard]] Category intended_category(int idx) const;

  /// All app indices with the given intended category.
  [[nodiscard]] std::vector<int> apps_in_category(Category c) const;

 private:
  std::vector<AppProfile> apps_;
  std::vector<Category> categories_;
};

/// Shared immutable instance (built on first use; thread-safe).
[[nodiscard]] const SpecSuite& spec_suite();

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_SPEC_SUITE_HH
