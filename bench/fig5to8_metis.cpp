// Figures 5–8 — the Metis experiment (§7.2), four views of one sweep over wr, wc and
// wrmem and the thread counts:
//   Figure 5  runtime of stock / tree-full / tree-refined / list-full / list-refined, plus
//             the range-scoped structural variants this repo adds (tree-scoped /
//             list-scoped);
//   Figure 6  the impact of range refinement on the list variants: list-full vs list-pf
//             (refined page faults only) vs list-mprotect (speculative mprotect only) vs
//             list-refined (both) vs list-scoped (both + range-scoped structural ops);
//   Figure 7  mean wait per read and per write acquisition of mmap_sem / the range lock,
//             for Figure 5's variants;
//   Figure 8  mean wait on the spin lock protecting the tree lock's range tree, the
//             bottleneck the paper finds in the kernel's range-lock design.
// Figures 5 and 6 read the same --repeats timed jobs per (variant, threads) cell.
// Figures 7 and 8 each add one job per cell with lock_stat-style wait accounting on,
// which the paper likewise enables only for its wait-time figures, so its probe effect
// stays out of the runtimes. A failed job exits 1.
//
// Flags: --threads=1,2,4,8  --total-kb=768  --rounds=6  --grow-pages=4  --seed=1
//        --repeats=1  --csv  --json=BENCH_fig5to8.json
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/stats.h"
#include "src/harness/table.h"
#include "src/harness/wait_stats.h"
#include "src/metis/metis_job.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

using vm::VmVariant;

// Every variant with timed jobs, in an order that keeps Figure 5's and Figure 6's own
// series orders, and the figures it appears in.
struct Series {
  VmVariant variant;
  bool fig5;  // and Figure 7
  bool fig6;
};
constexpr Series kSeries[] = {
    {VmVariant::kStock, true, false},       {VmVariant::kTreeFull, true, false},
    {VmVariant::kTreeRefined, true, false}, {VmVariant::kListFull, true, true},
    {VmVariant::kListPf, false, true},      {VmVariant::kListMprotect, false, true},
    {VmVariant::kListRefined, true, true},  {VmVariant::kTreeScoped, true, false},
    {VmVariant::kListScoped, true, true}};

struct Flags {
  std::vector<int> threads;
  uint64_t total_kb;
  metis::MetisConfig job;  // rounds, grow_chunk_pages and seed; RunJob sets the rest
  int repeats;
  bool csv;
};

// One job on a fresh address space. `waits` and `spins`, when set, receive the VM lock's
// acquisition waits and the tree lock's internal spin-lock waits.
double RunJob(const Flags& flags, metis::MetisApp app, VmVariant variant, int threads,
              WaitStats* waits, WaitStats* spins, double* spec_rate = nullptr) {
  metis::MetisConfig cfg = flags.job;
  cfg.app = app;
  cfg.threads = threads;
  // Fixed TOTAL input per round, split across workers — the paper's methodology (a
  // fixed input file / 2GB wrmem buffer regardless of thread count), so runtime falls
  // with useful parallelism and rises only from contention.
  cfg.chunk_bytes = flags.total_kb * 1024 / static_cast<uint64_t>(threads);
  vm::AddressSpace as(variant);
  as.Lock().SetWaitStats(waits);
  as.Lock().SetSpinWaitStats(spins);
  const metis::MetisResult result = metis::RunMetis(as, cfg);
  if (!result.ok) {
    std::cerr << "metis run failed for " << vm::VmVariantName(variant) << "\n";
    std::exit(1);
  }
  if (spec_rate != nullptr) {
    *spec_rate = as.Stats().SpeculationSuccessRate();
  }
  return result.seconds;
}

void RunApp(metis::MetisApp app, const Flags& flags, BenchJson* json) {
  Table fig5({"variant", "threads", "runtime_s", "rel-stddev%", "spec-rate%"});
  Table fig6({"variant", "threads", "runtime_s", "rel-stddev%"});
  Table fig7({"variant", "threads", "read_wait_us", "write_wait_us", "reads", "writes"});
  Table fig8({"variant", "threads", "spin_wait_us", "acquisitions"});
  for (const Series& series : kSeries) {
    const std::string name = vm::VmVariantName(series.variant);
    for (int t : flags.threads) {
      std::vector<double> secs;
      double spec_rate = 0;
      for (int r = 0; r < flags.repeats; ++r) {
        secs.push_back(RunJob(flags, app, series.variant, t, nullptr, nullptr, &spec_rate));
      }
      const Summary s = Summarize(secs);
      std::vector<std::string> row = {name, std::to_string(t), Table::Num(s.mean, 3),
                                      Table::Num(s.RelStddevPct(), 1)};
      if (series.fig6) {
        fig6.AddRow(row);
      }
      if (!series.fig5) {
        continue;
      }
      row.push_back(Table::Num(spec_rate * 100.0, 1));
      fig5.AddRow(std::move(row));
      WaitStats waits;
      RunJob(flags, app, series.variant, t, &waits, nullptr);
      fig7.AddRow({name, std::to_string(t), Table::Num(waits.MeanReadNs() / 1000.0, 3),
                   Table::Num(waits.MeanWriteNs() / 1000.0, 3),
                   std::to_string(waits.ReadCount()), std::to_string(waits.WriteCount())});
    }
  }
  for (VmVariant variant : {VmVariant::kTreeFull, VmVariant::kTreeRefined}) {
    for (int t : flags.threads) {
      WaitStats spins;
      RunJob(flags, app, variant, t, nullptr, &spins);
      fig8.AddRow({vm::VmVariantName(variant), std::to_string(t),
                   Table::Num(spins.MeanWriteNs() / 1000.0, 3),
                   std::to_string(spins.WriteCount())});
    }
  }
  const std::string app_name = metis::MetisAppName(app);
  const auto emit = [&](const char* figure, const char* title, const Table& table,
                        int repeats) {
    std::cout << "\n=== Figure " << figure << " (" << app_name << ") — " << title
              << " ===\n";
    table.Print(std::cout, flags.csv);
    json->AddTable({{"figure", figure},
                    {"app", app_name},
                    {"total_kb", std::to_string(flags.total_kb)},
                    {"rounds", std::to_string(flags.job.rounds)},
                    {"repeats", std::to_string(repeats)}},
                   table);
  };
  emit("5", "runtime, seconds (lower is better)", fig5, flags.repeats);
  emit("6", "refinement breakdown, runtime seconds", fig6, flags.repeats);
  emit("7", "mean lock wait per acquisition, microseconds", fig7, 1);
  emit("8", "mean wait on the internal range-tree spin lock, microseconds", fig8, 1);
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig5to8_metis --threads=1,2,4,8 --total-kb=768 --rounds=6 "
                 "--grow-pages=4 --seed=1 --repeats=1 --csv --json=BENCH_fig5to8.json\n";
    return 0;
  }
  srl::Flags flags{cli.GetIntList("--threads", {1, 2, 4, 8}),
                   static_cast<uint64_t>(cli.GetInt("--total-kb", 768)), {},
                   static_cast<int>(cli.GetInt("--repeats", 1)), cli.GetBool("--csv")};
  flags.job.rounds = static_cast<int>(cli.GetInt("--rounds", 6));
  flags.job.grow_chunk_pages = static_cast<uint64_t>(cli.GetInt("--grow-pages", 4));
  flags.job.seed = static_cast<uint64_t>(cli.GetInt("--seed", 1));
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();
  srl::BenchJson json("fig5to8_metis");
  for (srl::metis::MetisApp app : {srl::metis::MetisApp::kWr, srl::metis::MetisApp::kWc,
                                   srl::metis::MetisApp::kWrmem}) {
    srl::RunApp(app, flags, &json);
  }
  return json.Write(json_path) ? 0 : 1;
}
