// Reproduces paper Table II: application categories of the (synthetic)
// SPEC CPU2006 suite under the paper's CS/CI x PS/PI criteria.
//
//   CS: MPKI varies > 20% under +-50% LLC allocation and MPKI(8w) >= 0.2.
//   PS: (MLP_L - MLP_S) > 0.3 * MLP_M at baseline allocation, MLP_L >= 2.
//
// Output: per-application metrics and category, the per-category membership
// lists, and a verdict versus the paper's populations (5/7/7/8).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/csv.hh"
#include "common/table.hh"
#include "workload/classify.hh"

using namespace qosrm;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  static constexpr const char* kFlags[] = {"csv"};
  if (!args.reject_unknown(kFlags)) return 1;
  const std::string csv_path = args.get("csv", "");
  if (!probe_outputs({{"csv", csv_path}})) return 1;
  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db(workload::spec_suite(), system, power);

  const auto classifications = workload::classify_suite(db);

  AsciiTable table({"Application", "MPKI@4w", "MPKI@8w", "MPKI@12w", "MLP S",
                    "MLP M", "MLP L", "Category", "Paper"});
  std::map<workload::Category, std::vector<std::string>> members;
  int agreements = 0;
  for (const auto& cls : classifications) {
    const auto& app = db.suite().app(cls.app);
    const workload::Category intended = db.suite().intended_category(cls.app);
    table.add_row({app.name, AsciiTable::num(cls.mpki_lo),
                   AsciiTable::num(cls.mpki_base), AsciiTable::num(cls.mpki_hi),
                   AsciiTable::num(cls.mlp_s), AsciiTable::num(cls.mlp_m),
                   AsciiTable::num(cls.mlp_l),
                   workload::category_name(cls.category()),
                   workload::category_name(intended)});
    members[cls.category()].push_back(app.name);
    agreements += cls.category() == intended;
  }
  table.print();

  std::printf("\nTable II reproduction (paper populations CS-PS:5 CS-PI:7 "
              "CI-PS:7 CI-PI:8):\n");
  for (const auto& [cat, names] : members) {
    std::printf("  %-5s (%2zu):", workload::category_name(cat), names.size());
    for (const auto& n : names) std::printf(" %s", n.c_str());
    std::printf("\n");
  }
  std::printf("\nagreement with paper Table II: %d/27 applications\n", agreements);

  if (args.has("csv")) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& cls : classifications) {
      rows.push_back({db.suite().app(cls.app).name, std::to_string(cls.mpki_lo),
                      std::to_string(cls.mpki_base), std::to_string(cls.mpki_hi),
                      std::to_string(cls.mlp_s), std::to_string(cls.mlp_m),
                      std::to_string(cls.mlp_l),
                      workload::category_name(cls.category()),
                      workload::category_name(db.suite().intended_category(cls.app))});
    }
    if (!write_output("csv", csv_path,
                      csv_text({"app", "mpki4", "mpki8", "mpki12", "mlp_s",
                                "mlp_m", "mlp_l", "category", "paper_category"},
                               rows))) {
      return 1;
    }
  }
  return agreements == 27 ? 0 : 1;
}
