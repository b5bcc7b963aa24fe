// Figure 6 — breakdown of the impact of range refinement on the list-based variants
// (§7.2): list-full vs list-pf (refined page faults only) vs list-mprotect
// (speculative mprotect only) vs list-refined (both) vs list-scoped (both + range-scoped
// structural ops, this repo's extension).
//
// Flags: --threads=1,2,4,8  --total-kb=768  --rounds=6  --repeats=1  --csv
//        --json=BENCH_fig6.json
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
  std::cout << "\n=== Figure 6 (" << metis::MetisAppName(app)
            << ") — refinement breakdown, runtime seconds ===\n";
  Table table({"variant", "threads", "runtime_s", "rel-stddev%"});
  for (vm::VmVariant variant :
       {vm::VmVariant::kListFull, vm::VmVariant::kListPf, vm::VmVariant::kListMprotect,
        vm::VmVariant::kListRefined, vm::VmVariant::kListScoped}) {
    for (int t : flags.threads) {
      std::vector<double> secs;
      for (int r = 0; r < repeats; ++r) {
        const MetisRun run = RunMetisOnce(variant, ConfigFor(flags, app, t), false,
                                          false);
        if (!run.result.ok) {
          std::cerr << "metis run failed for " << vm::VmVariantName(variant) << "\n";
          return;
        }
        secs.push_back(run.result.seconds);
      }
      const Summary s = Summarize(secs);
      table.AddRow({vm::VmVariantName(variant), std::to_string(t), Table::Num(s.mean, 3),
                    Table::Num(s.RelStddevPct(), 1)});
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
    std::cout << "fig6_refinement --threads=1,2,4,8 --total-kb=768 --rounds=6 "
                 "--repeats=1 --csv --json=BENCH_fig6.json\n";
    return 0;
  }
  const srl::bench::MetisFlags flags(cli);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  cli.RejectUnknown();
  srl::BenchJson json("fig6_refinement");
  for (srl::metis::MetisApp app : {srl::metis::MetisApp::kWr, srl::metis::MetisApp::kWc,
                                   srl::metis::MetisApp::kWrmem}) {
    srl::bench::RunApp(app, flags, repeats, &json);
  }
  return json.Write(flags.json_path) ? 0 : 1;
}
