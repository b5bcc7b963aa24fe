// Figure 3 — ArrBench microbenchmark (§7.1).
//
// Threads access a 256-slot array of cache-line-padded slots under a range lock, with
// uniformly random non-critical work (up to 2048 no-ops) between operations. Three
// variants select the locked range:
//   full      every operation locks the entire array (panels a, b)
//   disjoint  per-thread slice, traversed nthreads times for constant work (c, d)
//   random    uniformly random [start, end] (e, f)
// and two mixes: 100% reads and 60% reads / 40% writes. Locks: lustre-ex, kernel-rw,
// pnova-rw (one segment per slot, as the paper configures), list-ex, list-lf
// (bucketed lock-free list), list-rw.
//
// Output: one table per (variant, mix) — the series of the corresponding panel.
//
// Flags: --variant=full|disjoint|random|all  --threads=1,2,4,8  --secs=0.25
//        --repeats=1  --csv
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/lock_adapters.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/sync/cacheline.h"

namespace srl {
namespace {

constexpr uint64_t kSlots = 256;
constexpr uint64_t kMaxPause = 2048;

struct Slot {
  volatile uint64_t value = 0;
};

using SlotArray = std::vector<CacheAligned<Slot>>;

enum class Variant { kFull, kDisjoint, kRandom };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kFull:
      return "full";
    case Variant::kDisjoint:
      return "disjoint";
    case Variant::kRandom:
      return "random";
  }
  return "?";
}

// The two locks whose geometry is ArrBench's own; the other series run the shared
// presets of src/harness/lock_adapters.h.
struct PnovaRw : SegmentRangeLock {
  static const char* Name() { return "pnova-rw"; }
  PnovaRw() : SegmentRangeLock(kSlots, static_cast<uint32_t>(kSlots)) {}  // one per slot
};

// 64-slot windows cut the 256-slot array into 4 windows, which the bucket hash spreads
// over 4 distinct heads of 16: disjoint per-thread slices own private heads up to 4
// threads (every acquisition rides the per-bucket fast path), and at 8 threads only
// pairs share a head. Finer windows would shrink 1-thread acquisitions (fewer nodes)
// but make slices share heads sooner; this is the paper's trade-off of window size
// against false bucket conflicts.
struct ListLf : ListLockFreeRangeLock {
  static const char* Name() { return "list-lf"; }
  ListLf() : ListLockFreeRangeLock(Options{.buckets = 16, .window_shift = 6}) {}
};

// noinline on the shared loops: every RunOne<LockT> specialization must execute the
// SAME copy of the pause and traversal loops. Inlined per-lock copies land at
// different code alignments, and tight-loop throughput is alignment-dependent (up to
// 2-3x on some cores) — at ~1k pause iterations plus a 256-slot traversal per op,
// per-specialization copies would drown the lock cost being measured.
[[gnu::noinline]] void NonCriticalWork(Xoshiro256& rng) {
  const uint64_t n = rng.NextBelow(kMaxPause);
  for (uint64_t i = 0; i < n; ++i) {
    asm volatile("");
  }
}

[[gnu::noinline]] uint64_t ReadSlots(const SlotArray& array, const Range& r,
                                     int traversals) {
  uint64_t sink = 0;
  for (int t = 0; t < traversals; ++t) {
    for (uint64_t i = r.start; i < r.end; ++i) {
      sink += array[i].value.value;
    }
  }
  return sink;
}

[[gnu::noinline]] void WriteSlots(SlotArray& array, const Range& r, int traversals) {
  for (int t = 0; t < traversals; ++t) {
    for (uint64_t i = r.start; i < r.end; ++i) {
      array[i].value.value = array[i].value.value + 1;
    }
  }
}

template <typename LockT>
Summary RunOne(Variant variant, double read_fraction, int threads, double secs,
               int repeats) {
  LockT lock;
  SlotArray array(kSlots);
  return MeasureThroughputRepeated(threads, secs, repeats, [&](int tid,
                                                               std::atomic<bool>& stop) {
    Xoshiro256 rng(0xa55a000 + static_cast<uint64_t>(tid));
    const uint64_t per = kSlots / static_cast<uint64_t>(threads);
    const uint64_t my_start = static_cast<uint64_t>(tid) * per;
    const uint64_t my_end = my_start + (tid == threads - 1 ? kSlots - my_start : per);
    uint64_t ops = 0;
    uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Range r{0, kSlots};
      int traversals = 1;
      switch (variant) {
        case Variant::kFull:
          break;
        case Variant::kDisjoint:
          r = {my_start, my_end};
          traversals = threads;  // constant total work across thread counts (§7.1)
          break;
        case Variant::kRandom: {
          uint64_t a = rng.NextBelow(kSlots);
          uint64_t b = rng.NextBelow(kSlots);
          if (a > b) {
            std::swap(a, b);
          }
          r = {a, b + 1};
          break;
        }
      }
      const bool is_read = rng.NextDouble() < read_fraction;
      if (is_read) {
        auto h = lock.Lock(r, LockMode::kRead);
        sink += ReadSlots(array, r, traversals);
        lock.Unlock(h);
      } else {
        auto h = lock.Lock(r);
        WriteSlots(array, r, traversals);
        lock.Unlock(h);
      }
      ++ops;
      NonCriticalWork(rng);
    }
    asm volatile("" ::"r"(sink));
    return ops;
  });
}

// One row per lock, in series order, at `t` threads.
template <typename... Locks>
void AddRows(Table* table, Variant variant, double read_fraction, int t, double secs,
             int repeats) {
  const auto add = [&](const char* name, const Summary& s) {
    table->AddRow({name, std::to_string(t), Table::Num(s.mean, 0),
                   Table::Num(s.RelStddevPct(), 1)});
  };
  (add(Locks::Name(), RunOne<Locks>(variant, read_fraction, t, secs, repeats)), ...);
}

void RunPanel(Variant variant, double read_fraction, const std::vector<int>& threads,
              double secs, int repeats, bool csv, BenchJson* json) {
  std::cout << "\n=== Figure 3 (" << VariantName(variant) << " ranges, "
            << static_cast<int>(read_fraction * 100) << "% reads) — throughput, ops/sec ===\n";
  Table table({"lock", "threads", "ops/sec", "rel-stddev%"});
  for (int t : threads) {
    AddRows<TreeExAdapter, TreeRwAdapter, PnovaRw, ListExAdapter, ListLf, ListRwAdapter>(
        &table, variant, read_fraction, t, secs, repeats);
  }
  table.Print(std::cout, csv);
  json->AddTable({{"variant", VariantName(variant)},
                  {"read_pct", std::to_string(static_cast<int>(read_fraction * 100))},
                  {"repeats", std::to_string(repeats)},
                  {"secs", Table::Num(secs, 3)}},
                 table);
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "fig3_arrbench --variant=full|disjoint|random|all "
                 "--threads=1,2,4,8 --secs=0.25 --repeats=1 --csv "
                 "--json=BENCH_fig3.json\n";
    return 0;
  }
  const std::string variant = cli.GetString("--variant", "all");
  const std::vector<int> threads = cli.GetIntList("--threads", {1, 2, 4, 8});
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::vector<srl::Variant> variants;
  if (variant == "all") {
    variants = {srl::Variant::kFull, srl::Variant::kDisjoint, srl::Variant::kRandom};
  } else if (variant == "full") {
    variants = {srl::Variant::kFull};
  } else if (variant == "disjoint") {
    variants = {srl::Variant::kDisjoint};
  } else {
    variants = {srl::Variant::kRandom};
  }
  srl::BenchJson json("fig3_arrbench");
  for (srl::Variant v : variants) {
    srl::RunPanel(v, 1.0, threads, secs, repeats, csv, &json);  // 100% reads panel
    srl::RunPanel(v, 0.6, threads, secs, repeats, csv, &json);  // 60% reads panel
  }
  return json.Write(json_path) ? 0 : 1;
}
