// Figure 7 — average wait time for mmap_sem / the range lock (§7.2), read vs write
// acquisitions, collected lock_stat-style (note the probe effect: wait instrumentation
// is only enabled for this bench, as the paper does with lock_stat). The scoped
// variants ride along so the write-wait collapse from range-scoping structural ops is
// visible in the same units.
//
// Flags: --threads=1,2,4,8  --total-kb=768  --rounds=6  --csv  --json=BENCH_fig7.json
#include <iostream>
#include <string>
#include <vector>

#include "bench/metis_bench_common.h"
#include "src/harness/table.h"

namespace srl::bench {
namespace {

void RunApp(metis::MetisApp app, const MetisFlags& flags, BenchJson* json) {
  std::cout << "\n=== Figure 7 (" << metis::MetisAppName(app)
            << ") — mean lock wait per acquisition, microseconds ===\n";
  Table table({"variant", "threads", "read_wait_us", "write_wait_us", "reads", "writes"});
  for (vm::VmVariant variant :
       {vm::VmVariant::kStock, vm::VmVariant::kTreeFull, vm::VmVariant::kTreeRefined,
        vm::VmVariant::kListFull, vm::VmVariant::kListRefined,
        vm::VmVariant::kTreeScoped, vm::VmVariant::kListScoped}) {
    for (int t : flags.threads) {
      const MetisRun run = RunMetisOnce(variant, ConfigFor(flags, app, t),
                                        /*collect_wait_stats=*/true,
                                        /*collect_spin_stats=*/false);
      if (!run.result.ok) {
        std::cerr << "metis run failed for " << vm::VmVariantName(variant) << "\n";
        return;
      }
      table.AddRow({vm::VmVariantName(variant), std::to_string(t),
                    Table::Num(run.mean_read_wait_ns / 1000.0, 3),
                    Table::Num(run.mean_write_wait_ns / 1000.0, 3),
                    std::to_string(run.reads), std::to_string(run.writes)});
    }
  }
  table.Print(std::cout, flags.csv);
  json->AddTable({{"app", metis::MetisAppName(app)},
                  {"total_kb", std::to_string(flags.total_kb)},
                  {"rounds", std::to_string(flags.rounds)},
                  {"repeats", "1"}},
                 table);
}

}  // namespace
}  // namespace srl::bench

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig7_waittime --threads=1,2,4,8 --total-kb=768 --rounds=6 --csv "
                 "--json=BENCH_fig7.json\n";
    return 0;
  }
  const srl::bench::MetisFlags flags(cli);
  cli.RejectUnknown();
  srl::BenchJson json("fig7_waittime");
  for (srl::metis::MetisApp app : {srl::metis::MetisApp::kWr, srl::metis::MetisApp::kWc,
                                   srl::metis::MetisApp::kWrmem}) {
    srl::bench::RunApp(app, flags, &json);
  }
  return json.Write(flags.json_path) ? 0 : 1;
}
