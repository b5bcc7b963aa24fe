// Ablation — pNOVA segment-count sensitivity (§2): "too few segments would create
// contention ... too many segments would make range acquisition more expensive — yet,
// Kim et al. do not discuss how the granularity should be tuned."
//
// Random-range workload over a 4096-unit universe; segment counts swept across three
// orders of magnitude. The list-based lock is shown as the granularity-free reference.
//
// Flags: --threads=4  --secs=0.3  --csv
#include <iostream>
#include <vector>

#include "src/baselines/segment_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"

namespace srl {
namespace {

constexpr uint64_t kUniverse = 4096;
constexpr uint64_t kMaxLen = 64;

template <typename AcquireRead, typename AcquireWrite>
double RunWorkload(int threads, double secs, AcquireRead&& read, AcquireWrite&& write) {
  return MeasureThroughput(threads, secs, [&](int tid, std::atomic<bool>& stop) {
    Xoshiro256 rng(0x5e6 + static_cast<uint64_t>(tid));
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t a = rng.NextBelow(kUniverse - kMaxLen);
      const Range r{a, a + 1 + rng.NextBelow(kMaxLen)};
      if (rng.NextChance(0.3)) {
        write(r);
      } else {
        read(r);
      }
      ++ops;
    }
    return ops;
  });
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_segments --threads=4 --secs=0.3 --csv\n";
    return 0;
  }
  const int threads = static_cast<int>(cli.GetInt("--threads", 4));
  const double secs = cli.GetDouble("--secs", 0.3);
  const bool csv = cli.GetBool("--csv");
  cli.RejectUnknown();

  std::cout << "=== Ablation — pnova-rw segment-count sensitivity (random ranges, "
            << threads << " threads, 30% writes) ===\n";
  srl::Table table({"config", "ops/sec"});
  for (uint32_t segs : {4u, 16u, 64u, 256u, 1024u}) {
    srl::SegmentRangeLock lock(srl::kUniverse, segs);
    const double ops = srl::RunWorkload(
        threads, secs,
        [&](const srl::Range& r) { lock.Release(lock.AcquireRead(r)); },
        [&](const srl::Range& r) { lock.Release(lock.AcquireWrite(r)); });
    table.AddRow({"pnova-rw/" + std::to_string(segs), srl::Table::Num(ops, 0)});
  }
  {
    srl::ListRwRangeLock lock;
    const double ops = srl::RunWorkload(
        threads, secs, [&](const srl::Range& r) { lock.Unlock(lock.LockRead(r)); },
        [&](const srl::Range& r) { lock.Unlock(lock.LockWrite(r)); });
    table.AddRow({"list-rw (reference)", srl::Table::Num(ops, 0)});
  }
  table.Print(std::cout, csv);
  return 0;
}
