// vm-churn: the structural path of the address space. An empty
// AddressSpace(kListScoped) and 4 closed-loop clients, each repeating one cycle on a
// stripe of its own:
//   MmapInStripe(stripe, 16 pages) -> write-fault all 16 -> Mprotect the first 8
//   read-only (splits the VMA) -> a write fault there must be refused -> read-fault all
//   16 -> Munmap.
// Clients pin their stripe with MmapInStripe because plain Mmap follows HomeStripe(),
// which is drawn from the first CPU a thread ran on: when all four clients draw one
// stripe they serialize on its mutation lock, and the run measures that draw instead
// of the code. vm.home_stripes_distinct reports what HomeStripe() drew.
//
// The mmap cursor never reuses an address, so one 64 GiB stripe window holds about a
// million 17-page cycles — about 10 s of this loop. The space therefore has the maximum
// 64 stripes, 16 per client: client c starts on stripe c and moves 4 stripes on when a
// mapping comes back from another stripe (its window overflowed), which gives every
// client more than ten times the run's need.
#include <memory>
#include <thread>

#include "srl_bench/common.h"
#include "srl_bench/vm_probe.h"

namespace srlbench {
namespace {

using srl::vm::AddressSpace;
constexpr unsigned kStripes = 64;
constexpr unsigned kClients = 4;
constexpr uint64_t kPage = AddressSpace::kPageSize;
constexpr uint64_t kCyclePages = 16;
constexpr uint64_t kReadOnlyPages = 8;
constexpr uint32_t kRw = srl::vm::kProtRead | srl::vm::kProtWrite;

struct ChurnClient {
  explicit ChurnClient(uint32_t tid) : tracer(tid) {}
  Tracer tracer;
  Histogram op;                           // whole measured window
  Histogram fault, mmap, mprotect, munmap;  // traced ops only
  uint64_t ops = 0, failed = 0;
  unsigned home_stripe = 0;
};

class ChurnRunner {
 public:
  ChurnRunner(AddressSpace& as, const Control& control) : as_(as), control_(control) {}

  void ClientLoop(uint32_t id, ChurnClient& c, Progress& progress) {
    c.home_stripe = as_.HomeStripe();  // drawn before pinning: the natural draw
    PinToCpu(id);
    unsigned stripe = id;
    Tracer& tr = c.tracer;
    uint64_t n = 0;
    while (!control_.stop.load(std::memory_order_relaxed)) {
      const bool measure = control_.measure.load(std::memory_order_relaxed);
      const uint64_t t0 = NowNs();
      tr.BeginOp(control_.trace.load(std::memory_order_relaxed), t0, (uint64_t{id} << 48) | n);
      const bool ok = Cycle(c, &stripe);
      const uint64_t t1 = tr.on ? tr.Mark() : NowNs();
      tr.RootSpan(kSpanCycle, t0, t1);
      if (measure) {
        c.op.Record(t1 - t0);
      }
      ++c.ops;
      c.failed += ok ? 0 : 1;
      progress.ops.store(++n, std::memory_order_relaxed);
    }
    tr.BeginOp(false, NowNs(), 0);
  }

 private:
  // Times one structural call into `hist` and charges it to vm's structural layer.
  template <typename Call>
  bool Structural(ChurnClient& c, Histogram& hist, SpanName name, Call call) {
    const bool ok = call();
    if (c.tracer.on) {
      hist.Record(c.tracer.Lap(kStructural, name));
    }
    return ok;
  }

  // A page fault whose verdict must equal `legal`.
  bool Fault(ChurnClient& c, uint64_t addr, bool write, bool legal) {
    const bool verdict = as_.PageFault(addr, write);
    if (c.tracer.on) {
      c.fault.Record(c.tracer.Lap(kFault, kSpanFault));
    }
    return verdict == legal;
  }

  bool Cycle(ChurnClient& c, unsigned* stripe) {
    constexpr uint64_t kLen = kCyclePages * kPage;
    uint64_t base = 0;
    if (!Structural(c, c.mmap, kSpanMmap, [&] {
          base = as_.MmapInStripe(*stripe, kLen, kRw);
          return base != 0;
        })) {
      return false;
    }
    if (as_.StripeOf(base) != *stripe && *stripe + kClients < kStripes) {
      *stripe += kClients;
    }
    bool ok = true;
    for (uint64_t p = 0; p < kCyclePages; ++p) {
      ok = Fault(c, base + p * kPage, true, true) && ok;
    }
    ok = Structural(c, c.mprotect, kSpanMprotect, [&] {
           return as_.Mprotect(base, kReadOnlyPages * kPage, srl::vm::kProtRead);
         }) && ok;
    ok = Fault(c, base, true, false) && ok;
    for (uint64_t p = 0; p < kCyclePages; ++p) {
      ok = Fault(c, base + p * kPage, false, true) && ok;
    }
    ok = Structural(c, c.munmap, kSpanMunmap, [&] { return as_.Munmap(base, kLen); }) && ok;
    return ok;
  }

  AddressSpace& as_;
  const Control& control_;
};

}  // namespace

void RunVmChurn(const Options& opt, Report* report) {
  double setup_s = 0;
  const auto space = TimedSetup(&setup_s, [] {
    return std::make_unique<AddressSpace>(srl::vm::VmVariant::kListScoped, kStripes);
  });
  report->Set("setup_s", setup_s);
  AddressSpace& as = *space;
  srl::WaitStats waits;
  if (opt.trace) {
    as.Lock().SetWaitStats(&waits);
  }

  Control control;
  ChurnRunner runner(as, control);
  std::vector<std::unique_ptr<ChurnClient>> cs;
  std::vector<Progress> progress(kClients);
  std::vector<std::thread> threads;
  const uint64_t t_start = NowNs();
  for (uint32_t i = 0; i < kClients; ++i) {
    cs.push_back(std::make_unique<ChurnClient>(i));
  }
  for (uint32_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] { runner.ClientLoop(i, *cs[i], progress[i]); });
  }
  VmSnapshot before{};
  const WindowResult w = DriveWindow(&control, progress, opt.seconds, opt.trace,
                                     [&] { before = VmSnapshot::Take(as); });
  const VmSnapshot after = VmSnapshot::Take(as);
  control.stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  const double run_ns = static_cast<double>(NowNs() - t_start);

  Histogram op, fault, mmap, mprotect, munmap;
  for (const auto& c : cs) {
    op.Merge(c->op);
    fault.Merge(c->fault);
    mmap.Merge(c->mmap);
    mprotect.Merge(c->mprotect);
    munmap.Merge(c->munmap);
    report->AddOps(c->ops, c->failed);
  }

  report->Set("ops_per_s", Median(w.untraced_rates));
  report->Set("op_p50_us", op.Quantile(0.50) / 1e3);
  report->Set("op_p99_us", op.Quantile(0.99) / 1e3);
  report->Set("client.op_p999_us", op.Quantile(0.999) / 1e3);
  report->Set("vm.fault_p50_ns", fault.Quantile(0.50));
  report->Set("vm.fault_p99_ns", fault.Quantile(0.99));
  report->Set("vm.mmap_p50_ns", mmap.Quantile(0.50));
  report->Set("vm.mmap_p99_ns", mmap.Quantile(0.99));
  report->Set("vm.mprotect_p50_ns", mprotect.Quantile(0.50));
  report->Set("vm.mprotect_p99_ns", mprotect.Quantile(0.99));
  report->Set("vm.munmap_p50_ns", munmap.Quantile(0.50));
  report->Set("vm.munmap_p99_ns", munmap.Quantile(0.99));
  report->Set("vm.home_stripes_distinct", DistinctHomeStripes(cs));
  ReportLayerShares(cs, report);
  ReportVmCounters(before, after, report);
  if (opt.trace) {
    report->Set("trace_overhead_pct", TraceOverheadPct(w));
    ReportLockWaits(waits, run_ns * kClients, report);
    as.Lock().SetWaitStats(nullptr);
  }

  DrainAndCheck(as, report);
  // Every cycle unmapped what it faulted, so no page may remain.
  if (as.PresentPages() != 0) {
    report->Fail(std::to_string(as.PresentPages()) + " pages present after the drain");
  }
  WriteClientTrace(opt, cs, report);
}

}  // namespace srlbench
