// Figure 8 — average wait on the spin lock protecting the tree range lock's range tree
// (§7.2), for tree-full and tree-refined. This is the lock the paper identifies as the
// central bottleneck of the kernel's existing range-lock design.
//
// Flags: --threads=1,2,4,8  --total-kb=768  --rounds=6  --csv  --json=BENCH_fig8.json
#include <iostream>
#include <string>
#include <vector>

#include "bench/metis_bench_common.h"
#include "src/harness/table.h"

namespace srl::bench {
namespace {

void RunApp(metis::MetisApp app, const MetisFlags& flags, BenchJson* json) {
  std::cout << "\n=== Figure 8 (" << metis::MetisAppName(app)
            << ") — mean wait on the internal range-tree spin lock, microseconds ===\n";
  Table table({"variant", "threads", "spin_wait_us", "acquisitions"});
  for (vm::VmVariant variant : {vm::VmVariant::kTreeFull, vm::VmVariant::kTreeRefined}) {
    for (int t : flags.threads) {
      const MetisRun run = RunMetisOnce(variant, ConfigFor(flags, app, t),
                                        /*collect_wait_stats=*/false,
                                        /*collect_spin_stats=*/true);
      if (!run.result.ok) {
        std::cerr << "metis run failed for " << vm::VmVariantName(variant) << "\n";
        return;
      }
      table.AddRow({vm::VmVariantName(variant), std::to_string(t),
                    Table::Num(run.mean_spin_wait_ns / 1000.0, 3),
                    std::to_string(run.spin_acquisitions)});
    }
  }
  table.Print(std::cout, flags.csv);
  json->AddTable({{"app", metis::MetisAppName(app)}}, table);
}

}  // namespace
}  // namespace srl::bench

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig8_spinlock_wait --threads=1,2,4,8 --total-kb=768 --rounds=6 --csv "
                 "--json=BENCH_fig8.json\n";
    return 0;
  }
  const srl::bench::MetisFlags flags(cli);
  cli.RejectUnknown();
  srl::BenchJson json("fig8_spinlock_wait");
  for (srl::metis::MetisApp app : {srl::metis::MetisApp::kWr, srl::metis::MetisApp::kWc,
                                   srl::metis::MetisApp::kWrmem}) {
    srl::bench::RunApp(app, flags, &json);
  }
  return json.Write(flags.json_path) ? 0 : 1;
}
