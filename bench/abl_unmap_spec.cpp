// Ablation — speculative lookup phase for munmap (the §5.2 future-work extension;
// see AddressSpace::SetUnmapLookupSpeculation).
//
// Workload: fault-heavy reader threads plus one thread issuing munmap probes that
// mostly miss (querying unmapped scratch addresses — the pattern of defensive cleanup
// code and allocator double-free guards). Without the extension every miss serializes
// the whole address space behind a full-range write acquisition; with it, misses stay
// on the read path and faults keep flowing.
//
// Flags: --threads=4  --secs=0.4  --csv
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

constexpr uint64_t kPage = vm::AddressSpace::kPageSize;

double RunCase(bool speculate, int fault_threads, double secs, uint64_t* misses) {
  vm::AddressSpace as(vm::VmVariant::kListRefined);
  as.SetUnmapLookupSpeculation(speculate);
  const uint64_t region = as.Mmap(256 * kPage, vm::kProtRead | vm::kProtWrite);
  // An address far past every mapping: munmap probes there always miss.
  const uint64_t nowhere = region + (1u << 20) * kPage;

  std::atomic<bool> stop{false};
  std::thread unmapper([&] {
    Xoshiro256 rng(0xdead);
    while (!stop.load(std::memory_order_relaxed)) {
      as.Munmap(nowhere + rng.NextBelow(1024) * kPage, kPage);
    }
  });
  const double faults_per_sec =
      MeasureThroughput(fault_threads, secs, [&](int tid, std::atomic<bool>& stop_flag) {
        Xoshiro256 rng(0xf0 + static_cast<uint64_t>(tid));
        uint64_t ops = 0;
        while (!stop_flag.load(std::memory_order_relaxed)) {
          as.PageFault(region + rng.NextBelow(256) * kPage, false);
          ++ops;
        }
        return ops;
      });
  stop.store(true);
  unmapper.join();
  *misses = as.Stats().unmap_lookup_fastpath.load();
  return faults_per_sec;
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_unmap_spec --threads=4 --secs=0.4 --csv\n";
    return 0;
  }
  const int threads = static_cast<int>(cli.GetInt("--threads", 4));
  const double secs = cli.GetDouble("--secs", 0.4);
  const bool csv = cli.GetBool("--csv");
  cli.RejectUnknown();

  std::cout << "=== Ablation — munmap lookup speculation (§5.2 future work): fault "
               "throughput under a stream of missing munmaps ===\n";
  srl::Table table({"config", "faults/sec", "read-path unmap misses"});
  for (bool spec : {false, true}) {
    uint64_t misses = 0;
    const double fps = srl::RunCase(spec, threads, secs, &misses);
    table.AddRow({spec ? "speculative lookup" : "baseline (full write)",
                  srl::Table::Num(fps, 0), std::to_string(misses)});
  }
  table.Print(std::cout, csv);
  return 0;
}
