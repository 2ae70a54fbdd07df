// Tradeoff explorer: dissect one application the way the RM sees it.
//
//   $ ./examples/tradeoff_explorer --app=mcf
//
// Prints (a) the ground-truth miss curve and MLP per core size, (b) the
// ground-truth interval time/energy across the (c, f, w) space at QoS-
// feasible points, and (c) the local optimizer's choice per LLC allocation
// for RM1/RM2/RM3 - the energy curves E*(w) that feed the global optimizer.
#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "rm/local_opt.hh"
#include "rmsim/snapshot.hh"
#include "workload/classify.hh"

using namespace qosrm;

namespace {

constexpr CliFlag kFlags[] = {
    {"app", CliFlag::kText, "NAME", "mcf", {}, "application to dissect"},
};

void print_characterization(const workload::SimDb& db, int app) {
  const workload::AppClassification cls = workload::classify_app(db, app);
  std::printf("category: %s\n", workload::category_name(cls.category()));

  AsciiTable mpki({"ways", "4", "6", "8", "10", "12", "14", "16"});
  std::vector<std::string> row = {"MPKI"};
  for (const int w : {4, 6, 8, 10, 12, 14, 16}) {
    row.push_back(AsciiTable::num(db.app_mpki(app, w), 2));
  }
  mpki.add_row(row);
  mpki.print();

  AsciiTable mlp({"core", "S", "M", "L"});
  mlp.add_row({"MLP@8w", AsciiTable::num(db.app_mlp(app, arch::CoreSize::S), 2),
               AsciiTable::num(db.app_mlp(app, arch::CoreSize::M), 2),
               AsciiTable::num(db.app_mlp(app, arch::CoreSize::L), 2)});
  mlp.print();
}

void print_local_curves(const workload::SimDb& db, int app) {
  // Counters of the dominant phase executed at the baseline setting.
  const workload::Setting base = workload::baseline_setting(db.system());
  const rm::CounterSnapshot snap = rmsim::make_snapshot(db, app, 0, base);

  const rm::PerfModel perf(rm::PerfModelKind::Model3, db.system());
  const rm::OnlineEnergyModel energy(db.power());

  AsciiTable table({"w", "RM1 E(w) [mJ]", "RM2 choice", "RM2 E(w) [mJ]",
                    "RM3 choice", "RM3 E(w) [mJ]"});
  const rm::LocalOptimizer rm1(perf, energy, {false, false});
  const rm::LocalOptimizer rm2(perf, energy, {true, false});
  const rm::LocalOptimizer rm3(perf, energy, {true, true});
  const rm::LocalOptResult r1 = rm1.optimize(snap);
  const rm::LocalOptResult r2 = rm2.optimize(snap);
  const rm::LocalOptResult r3 = rm3.optimize(snap);

  auto choice_str = [](const rm::WayChoice& c) -> std::string {
    if (!c.feasible) return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s@%.2fGHz",
                  arch::core_size_name(c.setting.c).data(),
                  arch::VfTable::frequency_hz(c.setting.f_idx) / 1e9);
    return buf;
  };
  auto energy_str = [](const rm::WayChoice& c) -> std::string {
    return c.feasible ? AsciiTable::num(c.energy_j * 1e3, 2) : "inf";
  };

  for (int w = db.system().llc.min_ways; w <= db.system().llc.max_ways; ++w) {
    table.add_row({std::to_string(w), energy_str(r1.at(w)), choice_str(r2.at(w)),
                   energy_str(r2.at(w)), choice_str(r3.at(w)),
                   energy_str(r3.at(w))});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = CliArgs(argc, argv, kFlags).get("app");

  const workload::SpecSuite& suite = workload::spec_suite();
  const int app = suite.index_of(name);
  if (app < 0) {
    std::fprintf(stderr, "unknown application: %s\n", name.c_str());
    return 1;
  }

  arch::SystemConfig system;
  system.cores = 2;
  const power::PowerModel power;
  const workload::SimDb db(suite, system, power);

  std::printf("=== %s ===\n", name.c_str());
  print_characterization(db, app);
  std::printf("\nlocal-optimizer energy curves (dominant phase, counters at "
              "the baseline setting):\n");
  print_local_curves(db, app);
  return 0;
}
