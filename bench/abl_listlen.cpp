// Ablation — list-length sensitivity (§3): the list lock's linear search "should not
// present an issue, as ... the number of stored elements (ranges) in the list is
// relatively small since it is proportional to the number of threads". This bench
// quantifies that assumption's breaking point: with K disjoint ranges pre-held, a probe
// acquisition positioned after all of them pays the full search cost — linear for the
// list locks, logarithmic for the tree and the skiplist-indexed lock.
//
// Single-threaded by design: the y-axis is the uncontended acquire/release path cost as
// a function of live-range count, not scalability. list-lf runs the VM backend's
// geometry (64 buckets, 64 KiB windows); with the 16-unit range stride here, thousands
// of held ranges share a handful of windows, so its search degenerates to linear too —
// the geometry-vs-precision trade the skiplist index removes.
//
// Flags: --held=0,16,64,256,1024,4096  --secs=0.25  --repeats=1  --csv
//        --json=BENCH_listlen.json
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/lock_adapters.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"

namespace srl {
namespace {

// Held ranges sit at [i*kStride, i*kStride + kStride/2); the probe starts past the
// last of them, which is the worst case for a sorted-by-start linear search.
constexpr uint64_t kStride = 16;

// list-lf in the VM backend's geometry; the other series run the shared presets of
// src/harness/lock_adapters.h.
struct ListLf : ListLockFreeRangeLock {
  static const char* Name() { return "list-lf"; }
  ListLf() : ListLockFreeRangeLock(Options{.buckets = 64, .window_shift = 16}) {}
};

template <typename LockT>
Summary RunOne(int held, double secs, int repeats) {
  return MeasureThroughputRepeated(
      1, secs, repeats, [&](int, std::atomic<bool>& stop) {
        LockT lock;
        std::vector<typename LockT::Handle> handles;
        handles.reserve(static_cast<std::size_t>(held));
        for (int i = 0; i < held; ++i) {
          const uint64_t base = static_cast<uint64_t>(i) * kStride;
          handles.push_back(lock.Lock({base, base + kStride / 2}));
        }
        // Probe in the gap after the last held range: greater than every held start
        // (full linear scan for the list locks) yet inside the same window span, so
        // list-lf cannot sidestep the search via an empty neighbouring bucket.
        const uint64_t probe_start =
            held == 0 ? kStride / 2
                      : static_cast<uint64_t>(held) * kStride - kStride / 2;
        const Range probe{probe_start, probe_start + kStride / 2};
        uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          auto h = lock.Lock(probe);
          lock.Unlock(h);
          ++ops;
        }
        for (auto h : handles) {
          lock.Unlock(h);
        }
        return ops;
      });
}

// One row per lock, in series order, at `held` held ranges.
template <typename... Locks>
void AddRows(Table* table, int held, double secs, int repeats) {
  const auto add = [&](const char* name, const Summary& s) {
    table->AddRow({name, std::to_string(held), Table::Num(s.mean, 0),
                   Table::Num(s.RelStddevPct(), 1)});
  };
  (add(Locks::Name(), RunOne<Locks>(held, secs, repeats)), ...);
}

void RunPanel(const std::vector<int>& held_counts, double secs, int repeats, bool csv,
              BenchJson* json) {
  std::cout << "\n=== List-length ablation — probe acquire/release after K held "
               "ranges, ops/sec ===\n";
  Table table({"lock", "held", "ops/sec", "rel-stddev%"});
  for (int held : held_counts) {
    AddRows<ListExAdapter, ListLf, TreeExAdapter, SkiplistIndexedAdapter>(&table, held,
                                                                          secs, repeats);
  }
  table.Print(std::cout, csv);
  json->AddTable({{"stride", std::to_string(kStride)},
                  {"repeats", std::to_string(repeats)},
                  {"secs", Table::Num(secs, 3)}},
                 table);
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_listlen --held=0,16,64,256,1024,4096 --secs=0.25 --repeats=1 "
                 "--csv --json=BENCH_listlen.json\n";
    return 0;
  }
  const std::vector<int> held = cli.GetIntList("--held", {0, 16, 64, 256, 1024, 4096});
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  srl::BenchJson json("abl_listlen");
  srl::RunPanel(held, secs, repeats, csv, &json);
  return json.Write(json_path) ? 0 : 1;
}
