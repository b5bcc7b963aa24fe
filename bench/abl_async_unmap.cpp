// Ablation — batched async munmap with epoch-tick page sweeps (the deferred-sweep
// subsystem; see README "Deferred page sweeps").
//
// Workload: mmap/fault/munmap churn cycles, every thread in its home stripe. Each
// cycle maps a scratch arena, write-faults `--fault-pages` of it, and tears it down
// through one of three sweep policies:
//
//   inline    SetDeferredSweeps(false) — the pre-deferral shape: the page sweep runs
//             inside the munmap's range acquisition, so the critical section grows
//             with the region being unmapped and every concurrent churner waits on it.
//   deferred  Munmap with deferred sweeps (the default): unlink + seqcount bump stay
//             synchronous, the dead range is enqueued, and whichever thread crosses
//             the flush threshold sweeps OUTSIDE any range lock.
//   async     MunmapAsync — pure enqueue, nothing flushes on the munmap path at all;
//             a dedicated epoch-tick thread drains the queues (the kernel-helper
//             shape: TLB-batching kworker analogue).
//
// Reported per (mode, threads, stripes): churn cycles/sec plus the sweep counters
// that prove the mechanism ran (flushes, swept pages, empty-VMA skips). The default
// shape faults only the front quarter of each arena — the common sparse case (heaps
// and arenas fault far fewer pages than they reserve) — so the deferred flusher's
// hint-bounded probe (SweepQueue::Range::expected) stops after the installed pages
// while the inline sweep probes the whole region inside its acquisition. The claim
// shape to look for: deferred at or ahead of inline at 1 thread, and pulling further
// ahead from 2 threads on as the sweep also leaves the serialized section.
//
// Flags: --modes=inline,deferred,async --threads=1,2,4,8 --stripes=1,4
//        --scratch-pages=256 --fault-pages=64 --flush-pages=1024
//        --secs=0.25 --repeats=3 --csv --json=BENCH_async_unmap.json
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

using vm::AddressSpace;
using vm::VmVariant;

struct RunResult {
  Summary churn_per_sec;
  uint64_t sweep_flushes = 0;
  uint64_t swept_pages = 0;
  uint64_t skipped_empty = 0;
  uint64_t pending_after = 0;  // must be 0 — every run ends with a drain
};

RunResult RunOne(VmVariant variant, const std::string& mode, int threads, double secs,
                 int repeats, uint64_t scratch_pages, uint64_t fault_pages,
                 uint64_t flush_pages, unsigned stripes) {
  AddressSpace as(variant, stripes);
  as.SetSweepFlushThreshold(flush_pages);
  if (mode == "inline") {
    as.SetDeferredSweeps(false);
  }
  const bool async = mode == "async";

  // The async mode's epoch-tick flusher: drain on a short period, the way a kernel
  // helper thread batches TLB shootdowns, so churners never sweep at all.
  std::atomic<bool> tick_stop{false};
  std::thread ticker;
  if (async) {
    ticker = std::thread([&] {
      while (!tick_stop.load(std::memory_order_acquire)) {
        as.DrainSweeps();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  const uint64_t scratch_bytes = scratch_pages * AddressSpace::kPageSize;
  const Summary s = MeasureThroughputRepeated(
      threads, secs, repeats, [&](int tid, std::atomic<bool>& stop) {
        const unsigned home = static_cast<unsigned>(tid) % stripes;
        uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t scratch =
              as.MmapInStripe(home, scratch_bytes, vm::kProtRead | vm::kProtWrite);
          if (scratch == 0) {
            break;  // stripe window exhausted (does not happen at bench durations)
          }
          for (uint64_t p = 0; p < fault_pages; ++p) {
            as.PageFault(scratch + p * AddressSpace::kPageSize, true);
          }
          if (async) {
            as.MunmapAsync(scratch, scratch_bytes);
          } else {
            as.Munmap(scratch, scratch_bytes);
          }
          ++ops;
        }
        return ops;
      });

  if (async) {
    tick_stop.store(true, std::memory_order_release);
    ticker.join();
  }
  as.DrainSweeps();

  RunResult r;
  r.churn_per_sec = s;
  r.sweep_flushes = as.Stats().sweeps_flushes.load(std::memory_order_relaxed);
  r.swept_pages = as.Stats().sweeps_swept_pages.load(std::memory_order_relaxed);
  r.skipped_empty = as.Stats().sweeps_skipped_empty.load(std::memory_order_relaxed);
  r.pending_after = as.PendingSweepPages();
  return r;
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_async_unmap --variants=list-scoped,tree-scoped "
                 "--modes=inline,deferred,async --threads=1,2,4,8 --stripes=1,4 "
                 "--scratch-pages=256 --fault-pages=<scratch/4> --flush-pages=1024 "
                 "--secs=0.25 --repeats=3 --csv --json=BENCH_async_unmap.json\n";
    return 0;
  }
  const std::vector<std::string> names =
      cli.GetStringList("--variants", {"list-scoped", "tree-scoped"});
  const std::vector<std::string> modes =
      cli.GetStringList("--modes", {"inline", "deferred", "async"});
  const std::vector<int> threads = cli.GetIntList("--threads", {1, 2, 4, 8});
  const std::vector<int> stripe_list = cli.GetIntList("--stripes", {1, 4});
  const uint64_t scratch_pages =
      static_cast<uint64_t>(cli.GetInt("--scratch-pages", 256));
  // Default: fault a quarter of the arena — the sparse shape the bounded sweep exists
  // for. Pass --fault-pages=<scratch> for the fully-faulted worst case.
  const uint64_t fault_pages = static_cast<uint64_t>(
      cli.GetInt("--fault-pages", static_cast<int64_t>(scratch_pages / 4)));
  const uint64_t flush_pages = static_cast<uint64_t>(cli.GetInt("--flush-pages", 1024));
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 3));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::cout << "\n=== batched async munmap — mmap/fault/munmap churn, page sweep "
               "inline vs deferred vs epoch-tick async ===\n";
  srl::Table table({"variant", "mode", "threads", "stripes", "churn/sec",
                    "rel-stddev%", "sweep-flushes", "swept-pages", "skipped-empty"});
  for (const std::string& name : names) {
    bool ok = false;
    const srl::vm::VmVariant variant = srl::vm::VmVariantFromName(name, &ok);
    if (!ok) {
      std::cerr << "unknown variant: " << name << "\n";
      return 2;
    }
    for (const std::string& mode : modes) {
      for (int t : threads) {
        for (int stripes : stripe_list) {
          const srl::RunResult r =
              srl::RunOne(variant, mode, t, secs, repeats, scratch_pages, fault_pages,
                          flush_pages, static_cast<unsigned>(stripes));
          if (r.pending_after != 0) {
            std::cerr << "pending sweeps survived the final drain: " << r.pending_after
                      << "\n";
            return 1;
          }
          table.AddRow({name, mode, std::to_string(t), std::to_string(stripes),
                        srl::Table::Num(r.churn_per_sec.mean, 0),
                        srl::Table::Num(r.churn_per_sec.RelStddevPct(), 1),
                        std::to_string(r.sweep_flushes), std::to_string(r.swept_pages),
                        std::to_string(r.skipped_empty)});
        }
      }
    }
  }
  table.Print(std::cout, csv);

  srl::BenchJson json("abl_async_unmap");
  json.AddTable({{"scratch_pages", std::to_string(scratch_pages)},
                 {"fault_pages", std::to_string(fault_pages)},
                 {"flush_pages", std::to_string(flush_pages)},
                 {"secs", srl::Table::Num(secs, 3)},
                 {"repeats", std::to_string(repeats)}},
                table);
  return json.Write(json_path) ? 0 : 1;
}
