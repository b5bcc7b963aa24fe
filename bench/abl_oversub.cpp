// Ablation — surviving the thousand-thread cliff: throughput of every VM lock backend
// from modest load deep into oversubscription (8 -> 1024 threads on a machine with far
// fewer cores), with the concurrency-restricting admission layer on and off.
//
// "Avoiding Scalability Collapse by Restricting Concurrency" (Dice & Kogan) is the
// playbook: past saturation, surplus contenders stop adding throughput and start
// destroying it — every spinner burns scheduler quanta that the lock holder needs to
// finish its critical section. The AdmissionGate caps active contenders at ~#cores and
// parks the rest on a futex, so the gated curves should hold their saturation plateau
// where the ungated ones collapse.
//
// Three workload mixes, one per contention shape:
//   adversarial   every op takes the whole address space (Range::Full() write) — zero
//                 range parallelism, the mmap_sem worst case the gate exists for;
//   hot           all threads churn one 4 KiB window — same-stripe conflict chains
//                 exercising the per-bucket waiter gates inside the list backends
//                 (the stock semaphore ignores ranges and sees adversarial);
//   disjoint      each thread owns a private 64 KiB-aligned window — the control: no
//                 waiting, so the gate must cost nothing (<= a few % at t <= cores).
//
// Reported per cell: ops/sec, rel-stddev%, and the delta of the process-wide
// park/cull counters — parks > 0 is the proof the gate actually engaged, parks == 0
// on disjoint the proof it stayed out of the way.
//
// Flags: --variants=stock,tree,list,list-lf --mixes=adversarial,hot,disjoint
//        --threads=8,16,32,64,128,256,512,1024 --gates=on,off --secs=0.15 --repeats=1
//        --csv --json=BENCH_oversub.json
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/sync/admission.h"
#include "src/sync/topology.h"
#include "src/vm/vm_lock.h"

namespace srl {
namespace {

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

struct Cell {
  Summary summary;
  uint64_t parks;
  uint64_t culls;
};

Cell RunCell(vm::VmLockKind kind, Mix mix, int threads, double secs, int repeats) {
  const auto lock = vm::MakeVmLock(kind);
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
          void* h = lock->LockWrite(r);
          shared.fetch_add(1, std::memory_order_relaxed);
          lock->UnlockWrite(h);
          ++ops;
        }
        return ops;
      });
  return {s, AdmissionGate::TotalParks() - parks0, AdmissionGate::TotalCulls() - culls0};
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_oversub --variants=stock,tree,list,list-lf "
                 "--mixes=adversarial,hot,disjoint "
                 "--threads=8,16,32,64,128,256,512,1024 --gates=on,off "
                 "--secs=0.15 --repeats=1 --csv --json=BENCH_oversub.json\n";
    return 0;
  }
  const std::vector<std::string> variants =
      cli.GetStringList("--variants", {"stock", "tree", "list", "list-lf"});
  const std::vector<std::string> mixes =
      cli.GetStringList("--mixes", {"adversarial", "hot", "disjoint"});
  const std::vector<int> threads =
      cli.GetIntList("--threads", {8, 16, 32, 64, 128, 256, 512, 1024});
  const std::vector<std::string> gates = cli.GetStringList("--gates", {"on", "off"});
  const double secs = cli.GetDouble("--secs", 0.15);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();

  auto kind_of = [](const std::string& v, srl::vm::VmLockKind* out) {
    using srl::vm::VmLockKind;
    if (v == "stock") {
      *out = VmLockKind::kStock;
    } else if (v == "tree") {
      *out = VmLockKind::kTree;
    } else if (v == "list") {
      *out = VmLockKind::kList;
    } else if (v == "list-lf") {
      *out = VmLockKind::kListLockFree;
    } else {
      return false;
    }
    return true;
  };
  auto mix_of = [](const std::string& m, srl::Mix* out) {
    if (m == "adversarial") {
      *out = srl::Mix::kAdversarial;
    } else if (m == "hot") {
      *out = srl::Mix::kHot;
    } else if (m == "disjoint") {
      *out = srl::Mix::kDisjoint;
    } else {
      return false;
    }
    return true;
  };

  const unsigned cpus = srl::CpuCount();
  std::cout << "\n=== oversubscription sweep — write throughput, admission gate "
               "on/off (" << cpus << " CPU" << (cpus == 1 ? "" : "s")
            << ", cap ~#cores) ===\n";
  srl::Table table(
      {"variant", "gate", "mix", "threads", "ops/sec", "rel-stddev%", "parks", "culls"});
  for (const std::string& g : gates) {
    if (g != "on" && g != "off") {
      std::cerr << "unknown --gates entry: " << g << "\n";
      return 1;
    }
    srl::AdmissionGate::SetGloballyEnabled(g == "on");
    for (const std::string& v : variants) {
      srl::vm::VmLockKind kind;
      if (!kind_of(v, &kind)) {
        std::cerr << "unknown --variants entry: " << v << "\n";
        return 1;
      }
      for (const std::string& m : mixes) {
        srl::Mix mix;
        if (!mix_of(m, &mix)) {
          std::cerr << "unknown --mixes entry: " << m << "\n";
          return 1;
        }
        for (int t : threads) {
          const srl::Cell c = srl::RunCell(kind, mix, t, secs, repeats);
          table.AddRow({v, g, m, std::to_string(t), srl::Table::Num(c.summary.mean, 0),
                        srl::Table::Num(c.summary.RelStddevPct(), 1),
                        std::to_string(c.parks), std::to_string(c.culls)});
        }
      }
    }
  }
  srl::AdmissionGate::SetGloballyEnabled(true);
  table.Print(std::cout, csv);

  srl::BenchJson json("abl_oversub");
  json.AddTable({{"cpus", std::to_string(cpus)},
                 {"hot_window", std::to_string(srl::kHotWindow)},
                 {"disjoint_stride", std::to_string(srl::kDisjointStride)}},
                table);
  return json.Write(json_path) ? 0 : 1;
}
