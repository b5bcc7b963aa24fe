// Shared driver for the Metis-based figure benches (Figures 5–8).
#ifndef SRL_BENCH_METIS_BENCH_COMMON_H_
#define SRL_BENCH_METIS_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/wait_stats.h"
#include "src/metis/metis_job.h"
#include "src/vm/address_space.h"

namespace srl::bench {

struct MetisRun {
  metis::MetisResult result;
  // Snapshot of lock wait accounting (populated when requested).
  double mean_read_wait_ns = 0;
  double mean_write_wait_ns = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  double mean_spin_wait_ns = 0;   // tree variants only
  uint64_t spin_acquisitions = 0;  // tree variants only
  double spec_rate = 0;
};

// The flags every Metis figure bench shares. main() reads them once, before
// Cli::RejectUnknown, so a typo'd flag fails before the first job runs.
struct MetisFlags {
  explicit MetisFlags(const Cli& cli)
      : threads(cli.GetIntList("--threads", {1, 2, 4, 8})),
        total_kb(static_cast<uint64_t>(cli.GetInt("--total-kb", 768))),
        rounds(static_cast<int>(cli.GetInt("--rounds", 6))),
        grow_pages(static_cast<uint64_t>(cli.GetInt("--grow-pages", 4))),
        seed(static_cast<uint64_t>(cli.GetInt("--seed", 1))),
        csv(cli.GetBool("--csv")),
        json_path(cli.JsonPath()) {}

  std::vector<int> threads;
  uint64_t total_kb;
  int rounds;
  uint64_t grow_pages;
  uint64_t seed;
  bool csv;
  std::string json_path;
};

inline metis::MetisConfig ConfigFor(const MetisFlags& flags, metis::MetisApp app,
                                    int threads) {
  metis::MetisConfig cfg;
  cfg.app = app;
  cfg.threads = threads;
  // Fixed TOTAL input per round, split across workers — the paper's methodology (a
  // fixed input file / 2GB wrmem buffer regardless of thread count), so runtime falls
  // with useful parallelism and rises only from contention.
  cfg.chunk_bytes = flags.total_kb * 1024 / static_cast<uint64_t>(threads);
  cfg.rounds = flags.rounds;
  cfg.grow_chunk_pages = flags.grow_pages;
  cfg.seed = flags.seed;
  return cfg;
}

inline MetisRun RunMetisOnce(vm::VmVariant variant, const metis::MetisConfig& cfg,
                             bool collect_wait_stats, bool collect_spin_stats) {
  vm::AddressSpace as(variant);
  WaitStats waits;
  WaitStats spins;
  if (collect_wait_stats) {
    as.Lock().SetWaitStats(&waits);
  }
  if (collect_spin_stats) {
    as.Lock().SetSpinWaitStats(&spins);
  }
  MetisRun run;
  run.result = metis::RunMetis(as, cfg);
  run.mean_read_wait_ns = waits.MeanReadNs();
  run.mean_write_wait_ns = waits.MeanWriteNs();
  run.reads = waits.ReadCount();
  run.writes = waits.WriteCount();
  run.mean_spin_wait_ns = spins.MeanWriteNs();
  run.spin_acquisitions = spins.WriteCount();
  run.spec_rate = as.Stats().SpeculationSuccessRate();
  return run;
}

}  // namespace srl::bench

#endif  // SRL_BENCH_METIS_BENCH_COMMON_H_
