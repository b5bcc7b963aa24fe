// Figure 5 — Metis runtime (§7.2): wr, wc, wrmem runtime (lower is better) as the
// thread count grows, for stock / tree-full / tree-refined / list-full / list-refined,
// plus the range-scoped structural variants (tree-scoped / list-scoped) this repo adds.
//
// Flags: --threads=1,2,4,8  --total-kb=768  --rounds=6  --repeats=1  --csv
//        --json=BENCH_fig5.json
#include <iostream>
#include <string>
#include <vector>

#include "bench/metis_bench_common.h"
#include "src/harness/stats.h"
#include "src/harness/table.h"

namespace srl::bench {
namespace {

void RunApp(metis::MetisApp app, const MetisFlags& flags, int repeats,
            BenchJson* json) {
  std::cout << "\n=== Figure 5 (" << metis::MetisAppName(app)
            << ") — runtime, seconds (lower is better) ===\n";
  Table table({"variant", "threads", "runtime_s", "rel-stddev%", "spec-rate%"});
  for (vm::VmVariant variant :
       {vm::VmVariant::kStock, vm::VmVariant::kTreeFull, vm::VmVariant::kTreeRefined,
        vm::VmVariant::kListFull, vm::VmVariant::kListRefined,
        vm::VmVariant::kTreeScoped, vm::VmVariant::kListScoped}) {
    for (int t : flags.threads) {
      std::vector<double> secs;
      double spec = 0;
      for (int r = 0; r < repeats; ++r) {
        const MetisRun run = RunMetisOnce(variant, ConfigFor(flags, app, t),
                                          /*collect_wait_stats=*/false,
                                          /*collect_spin_stats=*/false);
        if (!run.result.ok) {
          std::cerr << "metis run failed for " << vm::VmVariantName(variant) << "\n";
          return;
        }
        secs.push_back(run.result.seconds);
        spec = run.spec_rate;
      }
      const Summary s = Summarize(secs);
      table.AddRow({vm::VmVariantName(variant), std::to_string(t), Table::Num(s.mean, 3),
                    Table::Num(s.RelStddevPct(), 1), Table::Num(spec * 100.0, 1)});
    }
  }
  table.Print(std::cout, flags.csv);
  json->AddTable({{"app", metis::MetisAppName(app)},
                  {"total_kb", std::to_string(flags.total_kb)},
                  {"rounds", std::to_string(flags.rounds)},
                  {"repeats", std::to_string(repeats)}},
                 table);
}

}  // namespace
}  // namespace srl::bench

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig5_metis --threads=1,2,4,8 --total-kb=768 --rounds=6 --repeats=1 "
                 "--csv --json=BENCH_fig5.json\n";
    return 0;
  }
  const srl::bench::MetisFlags flags(cli);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  cli.RejectUnknown();
  srl::BenchJson json("fig5_metis");
  for (srl::metis::MetisApp app : {srl::metis::MetisApp::kWr, srl::metis::MetisApp::kWc,
                                   srl::metis::MetisApp::kWrmem}) {
    srl::bench::RunApp(app, flags, repeats, &json);
  }
  return json.Write(flags.json_path) ? 0 : 1;
}
