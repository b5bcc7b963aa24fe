// Ablation — the admission spinner under oversubscription: write throughput of the
// range locks themselves from the core count deep into oversubscription (4 -> 256
// threads on a 4-core host), with the watch-loop admission spinner on and off.
//
// "Avoiding Scalability Collapse by Restricting Concurrency" (Dice & Kogan) is the
// playbook: past saturation, surplus contenders stop adding throughput and start
// destroying it — every spinner burns scheduler quanta that the lock holder needs to
// finish its critical section. The AdmissionGate caps active contenders at ~#cores and
// parks the rest on a futex. The one place it is wired is the AdmissionSpinner in the
// list locks' watch loops, which spans a whole acquisition: one list for list-rw, the
// chain of covered buckets for list-lf (and of covered stripes in the VM's list lock).
//
// The locks, one row name each:
//   stock     StockRangeLock, the reader-writer semaphore (mmap_sem);
//   tree      TreeRangeLock, the kernel's tree range lock;
//   list      ListRwRangeLock with the fast path off: one list under one spinner, which
//             is the VM's list lock on a one-stripe address space;
//   list-lf   ListLockFreeRangeLock in kv-cached's geometry, 64 buckets of 64 KiB
//             windows: the one lock whose acquisitions chain over several lists.
//
// What --gates toggles: AdmissionGate::SetGloballyEnabled, which makes that spinner
// inert and changes nothing else. stock and tree carry no gate, so their on and off
// rows run the same code, and the gap between them is the run-to-run noise.
//
// Three workload mixes, one per contention shape:
//   adversarial   every op writes Range::Full(): no range parallelism, every waiter
//                 waits on every holder; on list-lf each op is a chain across all 64
//                 buckets;
//   hot           every op writes one shared 4 KiB window: one conflict chain in one
//                 list (or bucket), whose waiters spin in the watch loop (the stock
//                 semaphore ignores ranges and sees adversarial);
//   disjoint      each thread writes its own 64 KiB-aligned window: no waiting, the
//                 control where the spinner must cost nothing.
//
// Reported per cell: ops/sec, rel-stddev%, and the delta of the process-wide
// park/cull counters — parks > 0 shows the spinner actually parked waiters.
//
// Flags: --variants=stock,tree,list,list-lf --mixes=adversarial,hot,disjoint
//        --threads=4,16,64,256 --gates=on,off --secs=0.15 --repeats=1
//        --csv --json=BENCH_oversub.json
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/stock_range_lock.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/range_lock.h"
#include "src/harness/cli.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/sync/admission.h"
#include "src/sync/topology.h"

namespace srl {
namespace {

struct Stock : StockRangeLock {
  static const char* Name() { return "stock"; }
};

struct Tree : TreeRangeLock {
  static const char* Name() { return "tree"; }
};

struct List : ListRwRangeLock {
  static const char* Name() { return "list"; }
};

struct ListLf : ListLockFreeRangeLock {
  static const char* Name() { return "list-lf"; }
  ListLf() : ListLockFreeRangeLock(Options{.buckets = 64, .window_shift = 16}) {}
};

enum class Mix { kAdversarial, kHot, kDisjoint };

constexpr uint64_t kHotWindow = 4096;        // one shared page-sized range
constexpr uint64_t kDisjointStride = 1 << 16;  // private 64 KiB window per thread

Range RangeFor(Mix mix, int tid) {
  switch (mix) {
    case Mix::kAdversarial:
      return Range::Full();
    case Mix::kHot:
      return Range{0, kHotWindow};
    default: {
      const uint64_t base = static_cast<uint64_t>(tid) * kDisjointStride;
      return Range{base, base + kHotWindow};
    }
  }
}

struct Sweep {
  std::vector<std::pair<std::string, Mix>> mixes;
  std::vector<int> threads;
  std::vector<std::string> gates;
  double secs;
  int repeats;
};

struct Cell {
  Summary summary;
  uint64_t parks;
  uint64_t culls;
};

template <RangeLock L>
Cell RunCell(Mix mix, int threads, double secs, int repeats) {
  L lock;
  // A sliver of shared work inside the critical section, so a "lock acquisition" is
  // not literally empty and torn exclusion would corrupt something observable.
  std::atomic<uint64_t> shared{0};
  const uint64_t parks0 = AdmissionGate::TotalParks();
  const uint64_t culls0 = AdmissionGate::TotalCulls();
  const Summary s = MeasureThroughputRepeated(
      threads, secs, repeats, [&](int tid, std::atomic<bool>& stop) {
        const Range r = RangeFor(mix, tid);
        uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const typename L::Handle h = lock.Lock(r);
          shared.fetch_add(1, std::memory_order_relaxed);
          lock.Unlock(h);
          ++ops;
        }
        return ops;
      });
  return {s, AdmissionGate::TotalParks() - parks0, AdmissionGate::TotalCulls() - culls0};
}

// Every cell of one lock. The on and off cells of one shape run back to back, so drift
// over the sweep's minutes (other load on the host) hits both sides alike.
template <RangeLock L>
void AddRows(const Sweep& sweep, Table* table) {
  for (const auto& [mix_name, mix] : sweep.mixes) {
    for (int t : sweep.threads) {
      for (const std::string& g : sweep.gates) {
        AdmissionGate::SetGloballyEnabled(g == "on");
        const Cell c = RunCell<L>(mix, t, sweep.secs, sweep.repeats);
        table->AddRow({L::Name(), g, mix_name, std::to_string(t),
                       Table::Num(c.summary.mean, 0),
                       Table::Num(c.summary.RelStddevPct(), 1), std::to_string(c.parks),
                       std::to_string(c.culls)});
      }
    }
  }
}

// The rows of the lock in Locks named `name`; false if none has that name.
template <RangeLock... Locks>
bool AddRowsNamed(const std::string& name, const Sweep& sweep, Table* table) {
  return ((name == Locks::Name() && (AddRows<Locks>(sweep, table), true)) || ...);
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout
        << "abl_oversub --variants=stock,tree,list,list-lf "
           "--mixes=adversarial,hot,disjoint --threads=4,16,64,256 --gates=on,off "
           "--secs=0.15 --repeats=1 --csv --json=BENCH_oversub.json\n"
           "  --gates toggles only the watch-loop admission spinner of list and list-lf;\n"
           "    stock and tree carry no gate, so their on/off rows run the same code\n"
           "    and their gap is the run-to-run noise.\n"
           "  --mixes: adversarial = every op writes Range::Full() (no range\n"
           "    parallelism); hot = every op writes one shared 4 KiB window (one\n"
           "    conflict chain); disjoint = each thread writes its own 64 KiB-aligned\n"
           "    window (no waiting: the spinner must cost nothing).\n";
    return 0;
  }
  const std::vector<std::string> variants =
      cli.GetStringList("--variants", {"stock", "tree", "list", "list-lf"});
  const std::vector<std::string> mix_names =
      cli.GetStringList("--mixes", {"adversarial", "hot", "disjoint"});
  const std::vector<int> threads =
      cli.GetIntList("--threads", {4, 16, 64, 256});
  const std::vector<std::string> gates = cli.GetStringList("--gates", {"on", "off"});
  const double secs = cli.GetDouble("--secs", 0.15);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  std::vector<std::pair<std::string, srl::Mix>> mixes;
  for (const std::string& m : mix_names) {
    if (m == "adversarial") {
      mixes.emplace_back(m, srl::Mix::kAdversarial);
    } else if (m == "hot") {
      mixes.emplace_back(m, srl::Mix::kHot);
    } else if (m == "disjoint") {
      mixes.emplace_back(m, srl::Mix::kDisjoint);
    } else {
      std::cerr << "unknown --mixes entry: " << m << "\n";
      return 1;
    }
  }
  for (const std::string& g : gates) {
    if (g != "on" && g != "off") {
      std::cerr << "unknown --gates entry: " << g << "\n";
      return 1;
    }
  }
  const srl::Sweep sweep{mixes, threads, gates, secs, repeats};

  const unsigned cpus = srl::CpuCount();
  std::cout << "\n=== oversubscription sweep — write throughput, admission spinner "
               "on/off (" << cpus << " CPU" << (cpus == 1 ? "" : "s")
            << ", cap ~#cores) ===\n";
  srl::Table table(
      {"variant", "gate", "mix", "threads", "ops/sec", "rel-stddev%", "parks", "culls"});
  for (const std::string& v : variants) {
    if (!srl::AddRowsNamed<srl::Stock, srl::Tree, srl::List, srl::ListLf>(v, sweep,
                                                                           &table)) {
      std::cerr << "unknown --variants entry: " << v << "\n";
      return 1;
    }
  }
  srl::AdmissionGate::SetGloballyEnabled(true);
  table.Print(std::cout, csv);

  srl::BenchJson json("abl_oversub");
  json.AddTable({{"repeats", std::to_string(repeats)},
                 {"secs", srl::Table::Num(secs, 3)},
                 {"hot_window", std::to_string(srl::kHotWindow)},
                 {"disjoint_stride", std::to_string(srl::kDisjointStride)}},
                table);
  return json.Write(json_path) ? 0 : 1;
}
