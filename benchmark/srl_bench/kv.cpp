// kv-cached and kv-paged: a file/KV store of checksummed 64-byte records behind one
// range lock, driven by closed-loop clients.
//
// Op mix per client, keys Zipf(0.99) over a seeded scattered rank->record bijection:
//   60% point read    lock the record, validate it
//   20% point write   lock, validate, rewrite with the next sequence number
//   10% transaction   3 records: first lock blocking, the rest try-locks; any failure
//                     releases everything and retries (ordered blocking acquisition
//                     can deadlock behind a queued Range::Full node)
//   10% scan          128 consecutive records under one acquisition
//   plus every 50 000th op of a client (from a seeded offset): a Range::Full scan
//   validating one record per 4 KiB page. A kv-paged full scan stalls every client for
//   tens of milliseconds, so their number per window is fixed rather than drawn: a
//   Poisson count moved the throughput of one run by +-12%.
//
// kv-cached: 2^15 records (2 MiB), list-lf with 64 buckets x 64 KiB windows, 4 clients.
// kv-paged:  2^23 records (512 MiB, larger than the 300 MiB L3 of the reference host),
//            list-ex, 3 clients; the file is mirrored by one Mmap in an
//            AddressSpace(kListScoped, 4 stripes, deferred sweeps), every record
//            access calls PageFault, and a janitor drops a rotating 1/16 of the file
//            with MadviseDontNeed every 200 us.
//
// Every write validates the record first, so a damaged record fails the first op that
// touches it, and the full-store pass after the window finds it if no op did.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "srl_bench/common.h"
#include "srl_bench/vm_probe.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/harness/prng.h"

namespace srlbench {
namespace {

constexpr uint64_t kRecordSize = 64;
constexpr uint64_t kScanRecords = 128;
constexpr int kTxnRecords = 3;
constexpr uint64_t kFullScanOneIn = 50000;
constexpr uint64_t kFullScanStride = 4096 / kRecordSize;  // one record per page
constexpr double kZipfTheta = 0.99;

struct Record {
  uint64_t sequence;
  uint64_t payload[6];
  uint64_t checksum;
};
static_assert(sizeof(Record) == kRecordSize);

// Order-sensitive digest of a record and its own index: a torn write, one stale word
// or a record written to the wrong slot all fail validation.
uint64_t Digest(const Record& r, uint64_t idx) {
  uint64_t h = (idx + 1) * 0x9E3779B97F4A7C15ull ^ r.sequence;
  for (const uint64_t w : r.payload) {
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
  }
  return h ^ (h >> 29);
}

// Zipf(theta) over [0, n) by Gray et al., "Quickly generating billion-record synthetic
// databases" (the YCSB generator): zeta(n) once, then one pow() per sample, no table —
// so op generation stays a small, constant share even at 2^23 keys.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(static_cast<double>(n)), max_(n - 1) {
    double zetan = 0;
    for (uint64_t i = n; i >= 1; --i) {  // smallest terms first
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    two_ = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / n_, 1.0 - theta)) / (1.0 - two_ / zetan);
  }

  uint64_t Sample(srl::Xoshiro256& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < two_) {
      return 1;
    }
    const auto r = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, max_);
  }

 private:
  double n_;
  uint64_t max_;
  double zetan_ = 0, alpha_ = 0, two_ = 0, eta_ = 0;
};

// list-lf in the VM backend's geometry: a 64 KiB window holds 1024 records, so point
// ops stay single-bucket while scans may span two and Range::Full takes all 64.
struct LfLock : srl::ListLockFreeRangeLock {
  LfLock() : ListLockFreeRangeLock(Options{.buckets = 64, .window_shift = 16}) {}
};

template <typename Lock>
struct KvState {
  uint64_t records = 0;
  std::unique_ptr<Zipf> zipf;
  uint64_t scatter_mul = 0;
  uint64_t scatter_add = 0;
  std::unique_ptr<Record[]> store;
  Lock lock;
  std::unique_ptr<srl::vm::AddressSpace> as;  // kv-paged's mirror of the file
  uint64_t base = 0;

  uint64_t Scatter(uint64_t rank) const {
    return (rank * scatter_mul + scatter_add) & (records - 1);
  }
  bool Valid(uint64_t idx) const { return Digest(store[idx], idx) == store[idx].checksum; }
};

template <typename Lock>
std::unique_ptr<KvState<Lock>> BuildKv(uint64_t records, uint64_t seed, bool paged) {
  auto s = std::make_unique<KvState<Lock>>();
  s->records = records;
  s->zipf = std::make_unique<Zipf>(records, kZipfTheta);
  uint64_t sm = seed;
  s->scatter_mul = srl::SplitMix64(sm) | 1;  // odd: a bijection mod 2^k
  s->scatter_add = srl::SplitMix64(sm);
  s->store = std::make_unique_for_overwrite<Record[]>(records);
  srl::Xoshiro256 rng(srl::SplitMix64(sm));
  for (uint64_t i = 0; i < records; ++i) {
    Record& r = s->store[i];
    r.sequence = 0;
    for (uint64_t& w : r.payload) {
      w = rng.Next();
    }
    r.checksum = Digest(r, i);
  }
  if (paged) {
    s->as = std::make_unique<srl::vm::AddressSpace>(srl::vm::VmVariant::kListScoped, 4);
    s->base = s->as->Mmap(records * kRecordSize, srl::vm::kProtRead | srl::vm::kProtWrite);
  }
  return s;
}

enum class Kind : uint8_t { kRead, kWrite, kTxn, kScan, kFull };

struct Op {
  Kind kind = Kind::kRead;
  int n = 0;  // distinct records of a txn
  uint64_t idx[kTxnRecords] = {};
};

struct KvClient {
  explicit KvClient(uint32_t tid) : tracer(tid) {}
  Tracer tracer;
  // Whole measured window.
  Histogram op, read, write, txn, scan;
  // Traced ops only.
  Histogram point_acquire, wide_acquire, release, cs, fault;
  uint64_t full_wait_ns = 0, full_acquires = 0;
  uint64_t try_attempts = 0, try_fails = 0, txns = 0, txn_retries = 0;
  uint64_t ops = 0, failed = 0;
  unsigned home_stripe = 0;
};

template <typename Lock>
class KvRunner {
 public:
  KvRunner(KvState<Lock>& s, const Control& control) : s_(s), control_(control) {}

  void ClientLoop(uint32_t id, KvClient& c, Progress& progress, uint64_t seed) {
    srl::Xoshiro256 rng(seed);
    uint64_t until_full = 1 + rng.NextBelow(kFullScanOneIn);
    if (s_.as) {
      c.home_stripe = s_.as->HomeStripe();  // drawn before pinning: the natural draw
    }
    PinToCpu(id);
    uint64_t n = 0;
    while (!control_.stop.load(std::memory_order_relaxed)) {
      const bool measure = control_.measure.load(std::memory_order_relaxed);
      const uint64_t t0 = NowNs();
      c.tracer.BeginOp(control_.trace.load(std::memory_order_relaxed), t0,
                       (uint64_t{id} << 48) | n);
      const Op op = Gen(rng, &until_full);
      c.tracer.Lap(kGen, kSpanGen);
      const bool ok = Exec(c, op, rng);
      const uint64_t t1 = c.tracer.on ? c.tracer.Mark() : NowNs();
      c.tracer.RootSpan(RootName(op.kind), t0, t1);
      if (measure) {
        c.op.Record(t1 - t0);
        if (Histogram* h = KindHist(c, op.kind)) {
          h->Record(t1 - t0);
        }
      }
      ++c.ops;
      c.failed += ok ? 0 : 1;
      progress.ops.store(++n, std::memory_order_relaxed);
    }
    c.tracer.BeginOp(false, NowNs(), 0);  // closes the last traced op's wall time
  }

 private:
  using Range = srl::Range;
  using Handle = decltype(std::declval<Lock&>().Lock(Range{0, 1}));

  Op Gen(srl::Xoshiro256& rng, uint64_t* until_full) const {
    Op op;
    if (--*until_full == 0) {
      *until_full = kFullScanOneIn;
      op.kind = Kind::kFull;
      return op;
    }
    const uint64_t roll = rng.NextBelow(10);
    op.idx[0] = s_.Scatter(s_.zipf->Sample(rng));
    op.n = 1;
    if (roll < 6) {
      op.kind = Kind::kRead;
    } else if (roll < 8) {
      op.kind = Kind::kWrite;
    } else if (roll < 9) {
      op.kind = Kind::kTxn;
      for (int i = 1; i < kTxnRecords; ++i) {
        op.idx[i] = s_.Scatter(s_.zipf->Sample(rng));
      }
      std::sort(op.idx, op.idx + kTxnRecords);
      op.n = static_cast<int>(std::unique(op.idx, op.idx + kTxnRecords) - op.idx);
    } else {
      op.kind = Kind::kScan;
      op.idx[0] = std::min(op.idx[0], s_.records - kScanRecords);
    }
    return op;
  }

  static SpanName RootName(Kind k) {
    switch (k) {
      case Kind::kRead:
        return kSpanRead;
      case Kind::kWrite:
        return kSpanWrite;
      case Kind::kTxn:
        return kSpanTxn;
      case Kind::kScan:
        return kSpanScan;
      case Kind::kFull:
        break;
    }
    return kSpanFullScan;
  }

  static Histogram* KindHist(KvClient& c, Kind k) {
    switch (k) {
      case Kind::kRead:
        return &c.read;
      case Kind::kWrite:
        return &c.write;
      case Kind::kTxn:
        return &c.txn;
      case Kind::kScan:
        return &c.scan;
      case Kind::kFull:
        break;
    }
    return nullptr;
  }

  static Range RecordRange(uint64_t idx) {
    return Range{idx * kRecordSize, (idx + 1) * kRecordSize};
  }

  // kv-paged: the record's page fault through the address-space mirror, a child span
  // of store.cs. Always legal (the mirror is one read-write mapping), so a refusal is
  // a failure.
  bool Touch(KvClient& c, uint64_t idx, bool write) {
    if (!s_.as) {
      return true;
    }
    Tracer& tr = c.tracer;
    tr.Lap(kCs, kSpanNone);
    const bool ok = s_.as->PageFault(s_.base + idx * kRecordSize, write);
    if (tr.on) {
      c.fault.Record(tr.Lap(kFault, kSpanFault));
    }
    return ok;
  }

  // Read-modify-write: validates, then installs the next version. A record that fails
  // validation is left as found, so the damage stays visible to the final pass.
  bool Rewrite(uint64_t idx, srl::Xoshiro256& rng) {
    if (!s_.Valid(idx)) {
      return false;
    }
    Record& r = s_.store[idx];
    ++r.sequence;
    for (uint64_t& w : r.payload) {
      w = rng.Next();
    }
    r.checksum = Digest(r, idx);
    return true;
  }

  // Ends the critical section begun at cs0 (its span encloses the faults taken
  // inside), then times the release(s) `unlock` performs.
  template <typename Unlock>
  void EndCs(KvClient& c, uint64_t cs0, Unlock unlock) {
    Tracer& tr = c.tracer;
    tr.Lap(kCs, kSpanNone);
    if (tr.on) {
      c.cs.Record(tr.Mark() - cs0);
      tr.Span(kSpanCs, cs0, tr.Mark());
    }
    unlock();
    const uint64_t release_ns = tr.Lap(kRelease, kSpanRelease);
    if (tr.on) {
      c.release.Record(release_ns);
    }
  }

  bool Exec(KvClient& c, const Op& op, srl::Xoshiro256& rng) {
    Tracer& tr = c.tracer;
    bool ok = true;
    switch (op.kind) {
      case Kind::kRead:
      case Kind::kWrite: {
        const bool write = op.kind == Kind::kWrite;
        const Handle h = s_.lock.Lock(RecordRange(op.idx[0]));
        const uint64_t wait = tr.Lap(kAcquire, kSpanAcquire);
        if (tr.on) {
          c.point_acquire.Record(wait);
        }
        const uint64_t cs0 = tr.Mark();
        ok = Touch(c, op.idx[0], write);
        ok = (write ? Rewrite(op.idx[0], rng) : s_.Valid(op.idx[0])) && ok;
        EndCs(c, cs0, [&] { s_.lock.Unlock(h); });
        break;
      }
      case Kind::kTxn: {
        Handle hs[kTxnRecords];
        int held = 0;
        for (;;) {
          hs[0] = s_.lock.Lock(RecordRange(op.idx[0]));
          held = 1;
          while (held < op.n) {
            ++c.try_attempts;
            if (!s_.lock.TryLock(RecordRange(op.idx[held]), &hs[held])) {
              ++c.try_fails;
              break;
            }
            ++held;
          }
          if (held == op.n) {
            break;
          }
          for (int i = 0; i < held; ++i) {
            s_.lock.Unlock(hs[i]);
          }
          ++c.txn_retries;
          std::this_thread::yield();
        }
        ++c.txns;
        tr.Lap(kAcquire, kSpanAcquire);
        const uint64_t cs0 = tr.Mark();
        for (int i = 0; i < op.n; ++i) {
          ok = Touch(c, op.idx[i], true) && ok;
          ok = Rewrite(op.idx[i], rng) && ok;
        }
        EndCs(c, cs0, [&] {
          for (int i = 0; i < held; ++i) {
            s_.lock.Unlock(hs[i]);
          }
        });
        break;
      }
      case Kind::kScan: {
        const uint64_t first = op.idx[0];
        const Handle h = s_.lock.Lock(
            Range{first * kRecordSize, (first + kScanRecords) * kRecordSize});
        const uint64_t wait = tr.Lap(kAcquire, kSpanAcquire);
        if (tr.on) {
          c.wide_acquire.Record(wait);
        }
        const uint64_t cs0 = tr.Mark();
        for (uint64_t i = first; i < first + kScanRecords; ++i) {
          ok = Touch(c, i, false) && ok;
          ok = s_.Valid(i) && ok;
        }
        EndCs(c, cs0, [&] { s_.lock.Unlock(h); });
        break;
      }
      case Kind::kFull: {
        const Handle h = s_.lock.Lock(Range::Full());
        const uint64_t wait = tr.Lap(kAcquire, kSpanAcquire);
        if (tr.on) {
          c.full_wait_ns += wait;
          ++c.full_acquires;
        }
        const uint64_t cs0 = tr.Mark();
        for (uint64_t i = 0; i < s_.records; i += kFullScanStride) {
          ok = Touch(c, i, false) && ok;
          ok = s_.Valid(i) && ok;
        }
        EndCs(c, cs0, [&] { s_.lock.Unlock(h); });
        break;
      }
    }
    return ok;
  }

  KvState<Lock>& s_;
  const Control& control_;
};

template <typename Lock>
void RunKv(const Options& opt, Report* report, uint64_t records, int clients, bool paged) {
  double setup_s = 0;
  auto state = TimedSetup(&setup_s,
                          [&] { return BuildKv<Lock>(records, opt.seed, paged); });
  report->Set("setup_s", setup_s);
  if (paged && state->base == 0) {
    report->Fail("Mmap of the store mirror failed");
    return;
  }
  if (opt.corrupt_record) {
    state->store[state->Scatter(0)].payload[0] ^= 1;  // the hottest key
  }
  srl::WaitStats waits;
  if (paged && opt.trace) {
    state->as->Lock().SetWaitStats(&waits);  // attached while quiescent, for the whole run
  }

  Control control;
  KvRunner<Lock> runner(*state, control);
  std::vector<std::unique_ptr<KvClient>> cs;
  std::vector<Progress> progress(clients);
  std::vector<std::thread> threads;
  uint64_t sm = opt.seed ^ 0xC11E47ull;
  const uint64_t t_start = NowNs();
  for (int i = 0; i < clients; ++i) {
    cs.push_back(std::make_unique<KvClient>(static_cast<uint32_t>(i)));
  }
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i, seed = srl::SplitMix64(sm)] {
      runner.ClientLoop(static_cast<uint32_t>(i), *cs[i], progress[i], seed);
    });
  }

  // kv-paged's janitor: trims a rotating sixteenth of the file every 200 us.
  std::atomic<bool> janitor_stop{false};
  Histogram madvise;
  uint64_t janitor_calls = 0, janitor_failed = 0;
  std::thread janitor;
  if (paged) {
    janitor = std::thread([&] {
      PinToCpu(static_cast<unsigned>(clients));
      const uint64_t sixteenth = records * kRecordSize / 16;
      for (unsigned slot = 0; !janitor_stop.load(std::memory_order_relaxed);
           slot = (slot + 1) % 16) {
        const uint64_t t0 = NowNs();
        const bool ok = state->as->MadviseDontNeed(state->base + slot * sixteenth, sixteenth);
        if (control.measure.load(std::memory_order_relaxed)) {
          madvise.Record(NowNs() - t0);
        }
        ++janitor_calls;
        janitor_failed += ok ? 0 : 1;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  VmSnapshot before{}, after{};
  const WindowResult w = DriveWindow(&control, progress, opt.seconds, opt.trace, [&] {
    if (paged) {
      before = VmSnapshot::Take(*state->as);
    }
  });
  if (paged) {
    after = VmSnapshot::Take(*state->as);
  }
  control.stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  janitor_stop.store(true);
  if (janitor.joinable()) {
    janitor.join();
  }
  const double run_ns = static_cast<double>(NowNs() - t_start);

  KvClient total(0);
  for (const auto& c : cs) {
    for (auto [dst, src] : {std::pair{&total.op, &c->op}, {&total.read, &c->read},
                            {&total.write, &c->write}, {&total.txn, &c->txn},
                            {&total.scan, &c->scan}, {&total.point_acquire, &c->point_acquire},
                            {&total.wide_acquire, &c->wide_acquire},
                            {&total.release, &c->release}, {&total.cs, &c->cs},
                            {&total.fault, &c->fault}}) {
      dst->Merge(*src);
    }
    total.full_wait_ns += c->full_wait_ns;
    total.full_acquires += c->full_acquires;
    total.try_attempts += c->try_attempts;
    total.try_fails += c->try_fails;
    total.txns += c->txns;
    total.txn_retries += c->txn_retries;
    report->AddOps(c->ops, c->failed);
  }
  report->AddOps(janitor_calls, janitor_failed);

  report->Set("ops_per_s", Median(w.untraced_rates));
  report->Set("op_p50_us", total.op.Quantile(0.50) / 1e3);
  report->Set("op_p99_us", total.op.Quantile(0.99) / 1e3);
  report->Set("client.op_p999_us", total.op.Quantile(0.999) / 1e3);
  report->Set("client.read_p99_us", total.read.Quantile(0.99) / 1e3);
  report->Set("client.write_p99_us", total.write.Quantile(0.99) / 1e3);
  report->Set("client.txn_p99_us", total.txn.Quantile(0.99) / 1e3);
  report->Set("client.scan_p99_us", total.scan.Quantile(0.99) / 1e3);
  report->Set("store.cs_p50_ns", total.cs.Quantile(0.50));
  report->Set("core.point_acquire_p50_ns", total.point_acquire.Quantile(0.50));
  report->Set("core.point_acquire_p99_ns", total.point_acquire.Quantile(0.99));
  report->Set("core.release_p50_ns", total.release.Quantile(0.50));
  report->Set("core.wide_acquire_p99_ns", total.wide_acquire.Quantile(0.99));
  report->Set("core.full_acquire_wait_us",
              Ratio(static_cast<double>(total.full_wait_ns) / 1e3,
                    static_cast<double>(total.full_acquires)));
  report->Set("core.txn_try_fail_rate", Ratio(static_cast<double>(total.try_fails),
                                              static_cast<double>(total.try_attempts)));
  report->Set("core.txn_retries_per_txn", Ratio(static_cast<double>(total.txn_retries),
                                                static_cast<double>(total.txns)));
  ReportLayerShares(cs, report);
  if (opt.trace) {
    report->Set("trace_overhead_pct", TraceOverheadPct(w));
  }

  if (paged) {
    report->Set("vm.fault_p50_ns", total.fault.Quantile(0.50));
    report->Set("vm.fault_p99_ns", total.fault.Quantile(0.99));
    report->Set("vm.madvise_p99_us", madvise.Quantile(0.99) / 1e3);
    report->Set("vm.home_stripes_distinct", DistinctHomeStripes(cs));
    ReportVmCounters(before, after, report);
    if (opt.trace) {
      ReportLockWaits(waits, run_ns * (clients + 1), report);
      state->as->Lock().SetWaitStats(nullptr);
    }
    DrainAndCheck(*state->as, report);
  }

  uint64_t bad = 0;
  for (uint64_t i = 0; i < records; ++i) {
    bad += state->Valid(i) ? 0 : 1;
  }
  if (bad != 0) {
    report->Fail(std::to_string(bad) + " records fail their checksum after the window");
  }
  WriteClientTrace(opt, cs, report);
}

}  // namespace

void RunKvCached(const Options& opt, Report* report) {
  RunKv<LfLock>(opt, report, uint64_t{1} << 15, 4, /*paged=*/false);
}

void RunKvPaged(const Options& opt, Report* report) {
  RunKv<srl::ListRangeLock>(opt, report, uint64_t{1} << 23, 3, /*paged=*/true);
}

}  // namespace srlbench
