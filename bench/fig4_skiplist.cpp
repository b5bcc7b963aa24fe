// Figure 4 — skip-list throughput (§6, §7.1).
//
// Synchrobench-style set workload: 80% find / 10% insert / 10% remove over a key range
// (paper: 8M range, 4M prefilled; defaults here are laptop-sized and scale up via
// flags). Variants: orig (Herlihy optimistic, per-node locks), range-lustre (range-lock
// skip list over the kernel tree lock), range-list (over the paper's list lock).
//
// Flags: --threads=1,2,4,8  --key-range=1048576  --update-pct=20  --secs=0.3
//        --repeats=1  --csv  --json=BENCH_fig4.json
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/skiplist/optimistic_skiplist.h"
#include "src/skiplist/range_lock_skiplist.h"

namespace srl {
namespace {

template <typename ListT>
void Prefill(ListT& list, uint64_t key_range, uint64_t target) {
  Xoshiro256 rng(0xf111);
  uint64_t inserted = 0;
  while (inserted < target) {
    if (list.Insert(1 + rng.NextBelow(key_range))) {
      ++inserted;
    }
  }
  ListT::QuiesceLocal();
}

template <typename ListT>
void RunSeries(const char* name, const std::vector<int>& threads, uint64_t key_range,
               double update_fraction, double secs, int repeats, Table* table) {
  auto list = std::make_unique<ListT>();
  Prefill(*list, key_range, key_range / 2);
  for (int t : threads) {
    const Summary s = MeasureThroughputRepeated(
        t, secs, repeats, [&](int tid, std::atomic<bool>& stop) {
          Xoshiro256 rng(0x600d + static_cast<uint64_t>(tid));
          uint64_t ops = 0;
          uint64_t quiesce = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const uint64_t key = 1 + rng.NextBelow(key_range);
            const double roll = rng.NextDouble();
            if (roll < update_fraction / 2) {
              list->Insert(key);
            } else if (roll < update_fraction) {
              list->Remove(key);
            } else {
              list->Contains(key);
            }
            if (++quiesce % 4096 == 0) {
              ListT::QuiesceLocal();
            }
            ++ops;
          }
          ListT::QuiesceLocal();
          return ops;
        });
    table->AddRow({name, std::to_string(t), Table::Num(s.mean, 0),
                   Table::Num(s.RelStddevPct(), 1)});
  }
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig4_skiplist --threads=1,2,4,8 --key-range=1048576 --update-pct=20 "
                 "--secs=0.3 --repeats=1 --csv --json=BENCH_fig4.json\n";
    return 0;
  }
  const std::vector<int> threads = cli.GetIntList("--threads", {1, 2, 4, 8});
  const uint64_t key_range =
      static_cast<uint64_t>(cli.GetInt("--key-range", 1 << 20));
  const int64_t update_pct = cli.GetInt("--update-pct", 20);
  const double update_fraction = update_pct / 100.0;
  const double secs = cli.GetDouble("--secs", 0.3);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::cout << "=== Figure 4 — skip-list throughput (ops/sec), "
            << (1.0 - update_fraction) * 100 << "% find, key range " << key_range
            << ", " << key_range / 2 << " prefilled ===\n";
  srl::Table table({"variant", "threads", "ops/sec", "rel-stddev%"});
  srl::RunSeries<srl::OptimisticSkipList>("orig", threads, key_range, update_fraction,
                                          secs, repeats, &table);
  srl::RunSeries<srl::RangeLockSkipList<srl::TreeLockPolicy>>(
      "range-lustre", threads, key_range, update_fraction, secs, repeats, &table);
  srl::RunSeries<srl::RangeLockSkipList<srl::ListLockPolicy>>(
      "range-list", threads, key_range, update_fraction, secs, repeats, &table);
  table.Print(std::cout, csv);
  srl::BenchJson json("fig4_skiplist");
  json.AddTable({{"key_range", std::to_string(key_range)},
                 {"update_pct", std::to_string(update_pct)},
                 {"repeats", std::to_string(repeats)},
                 {"secs", srl::Table::Num(secs, 3)}},
                table);
  return json.Write(json_path) ? 0 : 1;
}
