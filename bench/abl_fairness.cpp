// Ablation — the §4.3 fairness layer: throughput cost and worst-case acquisition
// latency benefit of the impatient counter + auxiliary phase-fair lock, under a
// CAS-churn-heavy workload (many short overlapping acquisitions at one hot spot).
//
// Flags: --threads=4,8  --secs=0.4  --csv  --json=BENCH_fairness.json
#include <algorithm>
#include <atomic>
#include <iostream>
#include <vector>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/harness/wait_stats.h"

namespace srl {
namespace {

struct Outcome {
  double ops_per_sec;
  double max_acquire_us;
};

template <typename LockT>
Outcome Run(LockT& lock, int threads, double secs) {
  std::atomic<uint64_t> max_ns{0};
  const double ops = MeasureThroughput(threads, secs, [&](int tid,
                                                          std::atomic<bool>& stop) {
    Xoshiro256 rng(0xfa1 + static_cast<uint64_t>(tid));
    uint64_t local_max = 0;
    uint64_t ops_done = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Hot spot: small, heavily overlapping ranges — maximal insertion-point churn.
      const uint64_t a = rng.NextBelow(8);
      const Range r{a, a + 4};
      const uint64_t t0 = WaitStats::NowNs();
      auto h = lock.Lock(r);
      local_max = std::max(local_max, WaitStats::NowNs() - t0);
      lock.Unlock(h);
      ++ops_done;
    }
    uint64_t seen = max_ns.load();
    while (local_max > seen && !max_ns.compare_exchange_weak(seen, local_max)) {
    }
    return ops_done;
  });
  return {ops, static_cast<double>(max_ns.load()) / 1000.0};
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_fairness --threads=4,8 --secs=0.4 --csv "
                 "--json=BENCH_fairness.json\n";
    return 0;
  }
  const std::vector<int> threads = cli.GetIntList("--threads", {4, 8});
  const double secs = cli.GetDouble("--secs", 0.4);
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::cout << "=== Ablation — fairness layer (§4.3): throughput vs worst-case "
               "acquisition latency ===\n";
  srl::Table table({"config", "threads", "ops/sec", "max_acquire_us"});
  for (int t : threads) {
    {
      srl::ListRangeLock lock;
      const auto o = srl::Run(lock, t, secs);
      table.AddRow({"raw list-ex", std::to_string(t), srl::Table::Num(o.ops_per_sec, 0),
                    srl::Table::Num(o.max_acquire_us, 1)});
    }
    for (int patience : {4, 64}) {
      srl::FairRangeLock<srl::ListRangeLock> lock({.inner = {}, .patience = patience});
      const auto o = srl::Run(lock, t, secs);
      table.AddRow({"fair (patience " + std::to_string(patience) + ")",
                    std::to_string(t), srl::Table::Num(o.ops_per_sec, 0),
                    srl::Table::Num(o.max_acquire_us, 1)});
    }
  }
  table.Print(std::cout, csv);

  srl::BenchJson json("abl_fairness");
  json.AddTable({{"workload", "hot-spot CAS churn, 4B ranges in an 8B window"}}, table);
  return json.Write(json_path) ? 0 : 1;
}
