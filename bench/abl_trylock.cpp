// Ablation — the trylock-first page-fault path under address-space churn.
//
// The kernel fault handler trylocks mmap_sem before it will ever sleep; our
// AddressSpace::PageFault mirrors that against the pluggable VmLock. This bench
// quantifies what the paper's kernel experiments imply but never isolate: how often the
// fault path gets in *without blocking*, per lock variant, as mmap/munmap churn takes
// full-range write acquisitions around it.
//
// Setup: `threads` fault threads touch uniformly random pages of a shared
// `--pages`-page mapping; one churn thread loops { mmap scratch; munmap scratch }
// (each a full-range write acquisition — range-scoped under the scoped variants) with
// `--churn-pause` no-ops between cycles. `--stripes` sweeps the address-space stripe
// count: in mode `disjoint` the churner works stripe 0 while the mapping lives in
// stripe 1, so the scoped variants' speculative faults validate against a seqcount the
// churn never touches (fault-stripe-retries ~ 0); mode `same-stripe` is the
// adversarial control with churn and mapping sharing stripe 0. Reported per
// (variant, threads, stripes, mode): fault throughput, trylock success rate, the
// fraction of faults resolved entirely lock-free (spec-ok%), the speculative retries
// charged to the mapping's stripe, and total churn cycles. The mmap cursor never
// reuses addresses, so a long enough run uses up stripe 0's window; MmapInStripe then
// returns 0 or carves from a neighbour (in disjoint mode, the faulters' stripe), and
// the bench names the variant and the stripe that ran out and exits 1.
//
// Flags: --variants=stock,tree-full,tree-refined,tree-scoped,list-full,list-refined,
//        list-scoped
//        --threads=1,2,4,8 --stripes=1,4 --modes=disjoint,same-stripe
//        --secs=0.25  --repeats=1  --pages=1024  --churn-pause=4096  --csv
//        --json=BENCH_trylock.json
#include <atomic>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

using vm::AddressSpace;
using vm::VmVariant;

struct RunResult {
  Summary faults_per_sec;
  double try_success_rate = 0.0;
  double spec_rate = 0.0;
  uint64_t fault_stripe_retries = 0;  // spec retries charged to the mapping's stripe
  uint64_t churn_cycles = 0;
  bool churn_exhausted = false;  // stripe 0's window ran out
};

RunResult RunOne(VmVariant variant, int fault_threads, double secs, int repeats,
                 uint64_t pages, uint64_t churn_pause, unsigned stripes,
                 bool same_stripe) {
  AddressSpace as(variant, stripes);
  const unsigned n = as.Stripes();
  const unsigned map_stripe = (same_stripe || n == 1) ? 0 : 1;
  const uint64_t base = as.MmapInStripe(map_stripe, pages * AddressSpace::kPageSize,
                                        vm::kProtRead | vm::kProtWrite);
  std::atomic<uint64_t> churn_cycles{0};
  std::atomic<bool> churn_exhausted{false};
  // Worker tids [0, fault_threads) fault; tid == fault_threads churns in stripe 0.
  // Only fault completions count as ops, so the throughput number is faults/sec.
  const Summary s = MeasureThroughputRepeated(
      fault_threads + 1, secs, repeats, [&](int tid, std::atomic<bool>& stop) {
        uint64_t ops = 0;
        if (tid == fault_threads) {
          while (!stop.load(std::memory_order_relaxed)) {
            const uint64_t scratch = as.MmapInStripe(
                0, 2 * AddressSpace::kPageSize, vm::kProtRead | vm::kProtWrite);
            if (scratch == 0 || as.StripeOf(scratch) != 0) {
              churn_exhausted.store(true, std::memory_order_relaxed);
              break;
            }
            as.Munmap(scratch, 2 * AddressSpace::kPageSize);
            churn_cycles.fetch_add(1, std::memory_order_relaxed);
            for (uint64_t i = 0; i < churn_pause; ++i) {
              asm volatile("");
            }
          }
          return uint64_t{0};
        }
        Xoshiro256 rng(0xfa017 + static_cast<uint64_t>(tid));
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t page = rng.NextBelow(pages);
          as.PageFault(base + page * AddressSpace::kPageSize, rng.NextChance(0.3));
          ++ops;
        }
        return ops;
      });
  RunResult r;
  r.faults_per_sec = s;
  r.try_success_rate = as.Stats().FaultTrySuccessRate();
  r.spec_rate = as.Stats().FaultSpecRate();
  r.fault_stripe_retries =
      as.Stats().stripe(map_stripe).fault_spec_retry.load(std::memory_order_relaxed);
  r.churn_cycles = churn_cycles.load(std::memory_order_relaxed);
  r.churn_exhausted = churn_exhausted.load(std::memory_order_relaxed);
  return r;
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_trylock --variants=stock,tree-full,tree-refined,tree-scoped,"
                 "list-full,list-refined,list-scoped "
                 "--threads=1,2,4,8 --stripes=1,4 "
                 "--modes=disjoint,same-stripe --secs=0.25 --repeats=1 --pages=1024 "
                 "--churn-pause=4096 --csv --json=BENCH_trylock.json\n";
    return 0;
  }
  const std::vector<int> threads = cli.GetIntList("--threads", {1, 2, 4, 8});
  const std::vector<int> stripe_list = cli.GetIntList("--stripes", {1, 4});
  const std::vector<std::string> modes =
      cli.GetStringList("--modes", {"disjoint", "same-stripe"});
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const uint64_t pages = static_cast<uint64_t>(cli.GetInt("--pages", 1024));
  const uint64_t churn_pause =
      static_cast<uint64_t>(cli.GetInt("--churn-pause", 4096));
  const bool csv = cli.GetBool("--csv");

  const std::vector<std::string> names = cli.GetStringList(
      "--variants", {"stock", "tree-full", "tree-refined", "tree-scoped", "list-full",
                     "list-refined", "list-scoped"});
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::cout << "\n=== trylock-first fault path under mmap/munmap churn ===\n";
  srl::Table table({"variant", "threads", "stripes", "mode", "faults/sec",
                    "rel-stddev%", "try-success%", "spec-ok%", "fault-stripe-retries",
                    "churn-cycles"});
  for (const std::string& name : names) {
    bool ok = false;
    const srl::vm::VmVariant variant = srl::vm::VmVariantFromName(name, &ok);
    if (!ok) {
      std::cerr << "unknown variant: " << name << "\n";
      return 2;
    }
    for (int t : threads) {
      for (int stripes : stripe_list) {
        for (const std::string& mode : modes) {
          const bool same = mode == "same-stripe";
          if (same && stripes <= 1) {
            continue;  // identical to disjoint at one stripe
          }
          const srl::RunResult r =
              srl::RunOne(variant, t, secs, repeats, pages, churn_pause,
                          static_cast<unsigned>(stripes), same);
          if (r.churn_exhausted) {
            std::cerr << "abl_trylock: " << name
                      << ": churn stripe 0 ran out of addresses; lower --secs or "
                         "--repeats\n";
            return 1;
          }
          table.AddRow({name, std::to_string(t), std::to_string(stripes), mode,
                        srl::Table::Num(r.faults_per_sec.mean, 0),
                        srl::Table::Num(r.faults_per_sec.RelStddevPct(), 1),
                        srl::Table::Num(r.try_success_rate * 100.0, 2),
                        srl::Table::Num(r.spec_rate * 100.0, 2),
                        std::to_string(r.fault_stripe_retries),
                        std::to_string(r.churn_cycles)});
        }
      }
    }
  }
  table.Print(std::cout, csv);

  srl::BenchJson json("abl_trylock");
  json.AddTable({{"pages", std::to_string(pages)},
                 {"churn_pause", std::to_string(churn_pause)},
                 {"secs", srl::Table::Num(secs, 3)},
                 {"repeats", std::to_string(repeats)}},
                table);
  return json.Write(json_path) ? 0 : 1;
}
