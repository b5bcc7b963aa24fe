// metis-wrmem: the paper's application. RunMetis(wrmem) on AddressSpace(kListRefined)
// — refined faults and speculative mprotect through the list reader-writer lock — with
// 4 workers, 1 MiB of seeded text per round, 40 rounds and one-page arena growth, so
// arena boundary moves make mprotect as frequent as the allocator allows.
//
// An op is one job (about 0.22 s on the reference host). Single jobs vary by about 10%
// on a shared host, so a run times about 90 of them rather than a few long ones. A
// round's text and tables (256 KiB per worker) stay in the worker's L2: with 8 MiB
// rounds the per-run median moved 10-25% with other tenants' memory traffic, with 1 MiB
// rounds about 5%.
//
// Set-up builds the address space and runs one kStock job on an address space of its
// own, which computes the reference result for the seed; it is timed as setup_s and
// excluded from every other metric. Every repeated set-up must compute the same
// reference. Two warm-up jobs follow (the first job of a process pays lazy set-up the
// later ones do not); then jobs run back to back until the window has elapsed, each
// checked against the reference. Traced runs alternate jobs with and without the VM
// lock's wait-time sink attached.
#include <memory>

#include "srl_bench/common.h"
#include "srl_bench/vm_probe.h"
#include "src/metis/metis_job.h"

namespace srlbench {
namespace {

constexpr int kWorkers = 4;
constexpr uint64_t kRoundBytes = 1 << 20;
constexpr int kRounds = 40;
constexpr int kWarmupJobs = 2;

srl::metis::MetisConfig JobConfig(uint64_t seed) {
  srl::metis::MetisConfig cfg;
  cfg.app = srl::metis::MetisApp::kWrmem;
  cfg.threads = kWorkers;
  cfg.chunk_bytes = kRoundBytes / kWorkers;
  cfg.rounds = kRounds;
  cfg.seed = seed;
  cfg.grow_chunk_pages = 1;
  return cfg;
}

bool Matches(const srl::metis::MetisResult& r, const srl::metis::MetisResult& ref) {
  return r.ok && r.checksum == ref.checksum && r.total_words == ref.total_words &&
         r.distinct_words == ref.distinct_words;
}

struct MetisSetup {
  std::unique_ptr<srl::vm::AddressSpace> as;
  srl::metis::MetisResult ref;
};

}  // namespace

void RunMetisWrmem(const Options& opt, Report* report) {
  const srl::metis::MetisConfig cfg = JobConfig(opt.seed);
  double setup_s = 0;
  int setups = 0, setups_agreeing = 0;
  srl::metis::MetisResult first_ref;
  MetisSetup setup = TimedSetup(&setup_s, [&] {
    MetisSetup s;
    s.as = std::make_unique<srl::vm::AddressSpace>(srl::vm::VmVariant::kListRefined);
    srl::vm::AddressSpace stock(srl::vm::VmVariant::kStock);
    s.ref = srl::metis::RunMetis(stock, cfg);
    if (setups++ == 0) {
      first_ref = s.ref;
    }
    setups_agreeing += Matches(s.ref, first_ref) ? 1 : 0;
    return s;
  });
  report->Set("setup_s", setup_s);
  const srl::metis::MetisResult& ref = setup.ref;
  if (!ref.ok || ref.total_words == 0 || setups_agreeing != setups) {
    report->Fail("reference kStock jobs failed or disagree (" + std::to_string(setups_agreeing) +
                 " of " + std::to_string(setups) + " agree)");
    return;
  }
  srl::vm::AddressSpace& as = *setup.as;

  uint64_t attempted = 0, failed = 0;
  auto job = [&] {
    const uint64_t t0 = NowNs();
    const srl::metis::MetisResult r = srl::metis::RunMetis(as, cfg);
    const double s = static_cast<double>(NowNs() - t0) * 1e-9;
    ++attempted;
    failed += Matches(r, ref) ? 0 : 1;
    return s;
  };
  for (int i = 0; i < kWarmupJobs; ++i) {
    job();
  }

  srl::WaitStats waits;
  std::vector<double> untraced_s, traced_s;
  const VmSnapshot before = VmSnapshot::Take(as);
  const uint64_t end = NowNs() + static_cast<uint64_t>(opt.seconds * 1e9);
  do {
    const bool traced = opt.trace && untraced_s.size() > traced_s.size();
    if (traced) {
      as.Lock().SetWaitStats(&waits);  // between jobs: the lock is quiescent
    }
    (traced ? traced_s : untraced_s).push_back(job());
    as.Lock().SetWaitStats(nullptr);
  } while (NowNs() < end);
  const VmSnapshot after = VmSnapshot::Take(as);
  report->AddOps(attempted, failed);

  double untraced_total = 0;
  for (const double s : untraced_s) {
    untraced_total += s;
  }
  double traced_total = 0;
  for (const double s : traced_s) {
    traced_total += s;
  }
  report->Set("ops_per_s", static_cast<double>(untraced_s.size()) / untraced_total);
  report->Set("op_p50_us", Median(untraced_s) * 1e6);
  report->Set("op_p99_us", SampleQuantile(untraced_s, 0.99) * 1e6);
  std::vector<double> all = untraced_s;
  all.insert(all.end(), traced_s.begin(), traced_s.end());
  report->Set("client.op_p999_us", SampleQuantile(all, 0.999) * 1e6);
  ReportVmCounters(before, after, report);
  if (opt.trace) {
    report->Set("trace_overhead_pct", traced_s.empty()
                                          ? 0.0
                                          : (Median(traced_s) / Median(untraced_s) - 1) * 100);
    ReportLockWaits(waits, traced_total * 1e9 * kWorkers, report);
  }

  DrainAndCheck(as, report);
  // Every arena unmaps itself when its worker ends, so no page may survive a job.
  if (as.PresentPages() != 0) {
    report->Fail(std::to_string(as.PresentPages()) + " pages present after the last job");
  }
}

}  // namespace srlbench
