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

#include "src/baselines/segment_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/harness/cli.h"
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

// Local adapters with ArrBench-specific construction (the generic ones in
// src/harness/lock_adapters.h default-construct; pnova needs workload geometry here).
struct LustreEx {
  static constexpr bool kRw = false;
  static const char* Name() { return "lustre-ex"; }
  TreeRangeLock lock;
  auto Read(const Range& r) { return lock.AcquireWrite(r); }
  auto Write(const Range& r) { return lock.AcquireWrite(r); }
  template <typename H>
  void Release(H h) {
    lock.Release(h);
  }
};

struct KernelRw {
  static constexpr bool kRw = true;
  static const char* Name() { return "kernel-rw"; }
  TreeRangeLock lock;
  auto Read(const Range& r) { return lock.AcquireRead(r); }
  auto Write(const Range& r) { return lock.AcquireWrite(r); }
  template <typename H>
  void Release(H h) {
    lock.Release(h);
  }
};

struct PnovaRw {
  static constexpr bool kRw = true;
  static const char* Name() { return "pnova-rw"; }
  SegmentRangeLock lock{kSlots, static_cast<uint32_t>(kSlots)};  // one segment per slot
  auto Read(const Range& r) { return lock.AcquireRead(r); }
  auto Write(const Range& r) { return lock.AcquireWrite(r); }
  template <typename H>
  void Release(H h) {
    lock.Release(h);
  }
};

struct ListEx {
  static constexpr bool kRw = false;
  static const char* Name() { return "list-ex"; }
  ListRangeLock lock;
  auto Read(const Range& r) { return lock.Lock(r); }
  auto Write(const Range& r) { return lock.Lock(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct ListLf {
  static constexpr bool kRw = false;
  static const char* Name() { return "list-lf"; }
  // 64-slot windows cut the 256-slot array into 4 windows, which the bucket hash
  // spreads over 4 distinct heads of 16: disjoint per-thread slices own private heads
  // up to 4 threads (every acquisition rides the per-bucket fast path), and at 8
  // threads only pairs share a head. Finer windows would shrink 1-thread acquisitions
  // (fewer nodes) but make slices share heads sooner; this is the paper's trade-off of
  // window size against false bucket conflicts.
  ListLockFreeRangeLock lock{
      ListLockFreeRangeLock::Options{.buckets = 16, .window_shift = 6}};
  auto Read(const Range& r) { return lock.Lock(r); }
  auto Write(const Range& r) { return lock.Lock(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct ListRw {
  static constexpr bool kRw = true;
  static const char* Name() { return "list-rw"; }
  ListRwRangeLock lock;
  auto Read(const Range& r) { return lock.LockRead(r); }
  auto Write(const Range& r) { return lock.LockWrite(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
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
  LockT adapter;
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
        auto h = adapter.Read(r);
        sink += ReadSlots(array, r, traversals);
        adapter.Release(h);
      } else {
        auto h = adapter.Write(r);
        WriteSlots(array, r, traversals);
        adapter.Release(h);
      }
      ++ops;
      NonCriticalWork(rng);
    }
    asm volatile("" ::"r"(sink));
    return ops;
  });
}

void RunPanel(Variant variant, double read_fraction, const std::vector<int>& threads,
              double secs, int repeats, bool csv, BenchJson* json) {
  std::cout << "\n=== Figure 3 (" << VariantName(variant) << " ranges, "
            << static_cast<int>(read_fraction * 100) << "% reads) — throughput, ops/sec ===\n";
  Table table({"lock", "threads", "ops/sec", "rel-stddev%"});
  auto add = [&](const char* name, int t, const Summary& s) {
    table.AddRow({name, std::to_string(t), Table::Num(s.mean, 0),
                  Table::Num(s.RelStddevPct(), 1)});
  };
  for (int t : threads) {
    add(LustreEx::Name(), t, RunOne<LustreEx>(variant, read_fraction, t, secs, repeats));
    add(KernelRw::Name(), t, RunOne<KernelRw>(variant, read_fraction, t, secs, repeats));
    add(PnovaRw::Name(), t, RunOne<PnovaRw>(variant, read_fraction, t, secs, repeats));
    add(ListEx::Name(), t, RunOne<ListEx>(variant, read_fraction, t, secs, repeats));
    add(ListLf::Name(), t, RunOne<ListLf>(variant, read_fraction, t, secs, repeats));
    add(ListRw::Name(), t, RunOne<ListRw>(variant, read_fraction, t, secs, repeats));
  }
  table.Print(std::cout, csv);
  json->AddTable({{"variant", VariantName(variant)},
                  {"read_pct", std::to_string(static_cast<int>(read_fraction * 100))}},
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
