// Application categorization (paper Section IV-C, producing Table II).
//
//   Cache Sensitive (CS):   MPKI varies by more than 20% when the LLC
//                           allocation changes by +-50% from the 8-way
//                           baseline, and baseline MPKI >= 0.2.
//   Parallelism Sensitive (PS): ground-truth MLP grows by more than 30% of
//                           the M-core MLP when resizing S -> L (at baseline
//                           allocation and VF), and MLP on L is >= 2.
#ifndef QOSRM_WORKLOAD_CLASSIFY_HH
#define QOSRM_WORKLOAD_CLASSIFY_HH

#include <vector>

#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {

struct AppClassification {
  int app = -1;
  bool cache_sensitive = false;
  bool parallelism_sensitive = false;
  double mpki_base = 0.0;  ///< MPKI at the baseline allocation
  double mpki_lo = 0.0;    ///< MPKI at -50% allocation (4 ways)
  double mpki_hi = 0.0;    ///< MPKI at +50% allocation (12 ways)
  double mlp_s = 1.0;
  double mlp_m = 1.0;
  double mlp_l = 1.0;

  [[nodiscard]] Category category() const noexcept {
    if (cache_sensitive) {
      return parallelism_sensitive ? Category::CS_PS : Category::CS_PI;
    }
    return parallelism_sensitive ? Category::CI_PS : Category::CI_PI;
  }
};

/// Classifies one application from database ground truth, probing the MPKI
/// curve around the system's baseline per-core allocation.
[[nodiscard]] AppClassification classify_app(const SimDb& db, int app);

/// Classifies the whole suite.
[[nodiscard]] std::vector<AppClassification> classify_suite(const SimDb& db);

/// Number of applications per category.
[[nodiscard]] std::array<int, kNumCategories> category_histogram(
    const std::vector<AppClassification>& cls);

/// Partitioning class of an application for the class-based baseline policy
/// (LFOC / pmctrack-style light / streaming / sensitive taxonomy).
///
///   Light     - barely uses the LLC (baseline MPKI below the Table II
///               minimum of 0.2); happy with the minimum allocation.
///   Streaming - high miss rate but a flat MPKI curve (fails the CS swing
///               rule): more ways don't help, so it gets the minimum
///               allocation to stop it polluting the cache.
///   Sensitive - cache sensitive per the Table II swing rule; these apps
///               share the remaining way budget.
enum class PartClass { Light = 0, Streaming = 1, Sensitive = 2 };

/// Classifies one MPKI curve sample (baseline / -50% / +50% allocations, the
/// same probe points as classify_app) into a partitioning class. Pure in its
/// arguments, so the baseline policy can classify from online ATD counters
/// without a database handle.
[[nodiscard]] PartClass classify_part_class(double mpki_base, double mpki_lo,
                                            double mpki_hi);

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_CLASSIFY_HH
