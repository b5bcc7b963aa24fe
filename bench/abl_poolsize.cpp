// Ablation — node-pool target size N (§4.4; the paper fixes N = 128).
//
// Measures the alloc/retire cycle cost as the pool size shrinks: a smaller N means more
// frequent refills, each of which parks its reclaimed batch behind a grace ticket (or
// swaps it in at once when no section is in flight) and mallocs fresh nodes while the
// batch waits; a larger N only costs memory. Refills never run a barrier. The benchmark
// allocates and retires in a loop with a competing thread holding periodic critical
// sections, so grace tickets have something to wait for.
#include <atomic>
#include <thread>

#include <benchmark/benchmark.h>

#include "src/core/lnode.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"

namespace srl {
namespace {

template <std::size_t kN>
void AllocRetireChurn(benchmark::State& state) {
  std::atomic<bool> stop{false};
  // Background reader cycling epoch critical sections: what a refill's ticket waits on.
  std::thread reader([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    while (!stop.load(std::memory_order_relaxed)) {
      EpochDomain::Enter(rec);
      for (int i = 0; i < 64; ++i) {
        CpuRelax();
      }
      EpochDomain::Exit(rec);
    }
  });
  NodePool<LNode, kN> pool;
  for (auto _ : state) {
    LNode* n = pool.Alloc();
    benchmark::DoNotOptimize(n);
    pool.Retire(n);  // goes to the reclaimed pool; reusable only after a grace period
  }
  stop.store(true);
  reader.join();
  state.SetItemsProcessed(state.iterations());
}

void BM_PoolChurn_N8(benchmark::State& s) { AllocRetireChurn<8>(s); }
void BM_PoolChurn_N32(benchmark::State& s) { AllocRetireChurn<32>(s); }
void BM_PoolChurn_N128(benchmark::State& s) { AllocRetireChurn<128>(s); }
void BM_PoolChurn_N512(benchmark::State& s) { AllocRetireChurn<512>(s); }
BENCHMARK(BM_PoolChurn_N8);
BENCHMARK(BM_PoolChurn_N32);
BENCHMARK(BM_PoolChurn_N128);
BENCHMARK(BM_PoolChurn_N512);

}  // namespace
}  // namespace srl

BENCHMARK_MAIN();
