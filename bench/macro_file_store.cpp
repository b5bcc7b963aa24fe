// Macro-benchmark — server-style file/KV store over one flat byte buffer, the original
// range-lock use case (§1: "multiple writers would want to write into different parts
// of the same file" without a whole-file lock). Promoted from the examples/ demo into a
// measured workload with the live-range counts a real server produces: at --records
// defaulting to 2^20, tens of concurrent holders and deep search structures, which is
// exactly where the O(log n) skiplist-indexed lock separates from the linear lists.
//
// Workload per client thread, Zipf-skewed over records (hot keys scattered through the
// buffer by a multiplicative permutation so popularity does not collapse into adjacent
// bytes):
//   60%   point read   — lock the record's byte range, checksum-validate
//   20%   point write  — lock + rewrite record with fresh checksum
//   10%   transaction  — 3 records locked in ascending byte order (deadlock-free),
//                        read-modify-write each
//   10%   short scan   — 128 consecutive records under one range acquisition
//   + occasionally (1 in 50k ops) a full-file scan under a Range::Full acquisition,
//     sampling every 64th record — the mmap_sem-style global writer every design must
//     absorb without collapsing.
//
// Torn-read detection: every record carries a checksum over its payload; any checksum
// mismatch under a held range means the lock failed exclusion and the bench exits
// non-zero. Locks: skiplist-indexed, list-ex, list-lf (VM geometry), lustre-ex.
//
// Cold-region drops (--cold-drop): the store can additionally run against a simulated
// AddressSpace mirror of the file — every record access page-faults its page, and a
// background janitor thread periodically drops the store's resident pages
// (MADV_DONTNEED over rotating sixteenths of the file), the way a cache server trims
// cold regions under memory pressure. `deferred` enqueues the drops on the sweep
// queues and lets the flush threshold batch the page-table work outside any range
// lock. Teardown exits through Munmap + DrainSweeps. Rows land in a second table (same
// metrics, extra cold-drop/drops-sec columns) so the default table's schema — and its
// perf_diff history — is untouched.
//
// Flags: --locks=skiplist-indexed,list-ex,list-lf,lustre-ex --threads=1,2,4,8
//        --records=1048576 --zipf=0.99 --secs=0.25 --repeats=1
//        --cold-drop=off|deferred --csv --json=BENCH_file_store.json
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/skiplist_range_lock.h"
#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

constexpr uint64_t kRecordSize = 64;
constexpr uint64_t kScanRecords = 128;
constexpr uint64_t kTxnRecords = 3;
constexpr uint64_t kFullScanOneIn = 50000;
constexpr uint64_t kFullScanStride = 64;

struct Record {
  uint64_t sequence;
  uint64_t payload[6];
  uint64_t checksum;  // sum of sequence and payload words
};
static_assert(sizeof(Record) == kRecordSize);

struct ListEx {
  static const char* Name() { return "list-ex"; }
  ListRangeLock lock;
  auto Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, ListRangeLock::Handle* out) {
    return lock.TryLock(r, out);
  }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct ListLf {
  static const char* Name() { return "list-lf"; }
  // The VM backend's geometry: 64 KiB windows hold 1024 records each, so point
  // operations stay single-bucket while scans and the full-file writer go multi-bucket.
  ListLockFreeRangeLock lock{
      ListLockFreeRangeLock::Options{.buckets = 64, .window_shift = 16}};
  auto Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, ListLockFreeRangeLock::Handle* out) {
    return lock.TryLock(r, out);
  }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct LustreEx {
  static const char* Name() { return "lustre-ex"; }
  TreeRangeLock lock;
  auto Acquire(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquire(const Range& r, TreeRangeLock::Handle* out) {
    return lock.TryAcquireWrite(r, out);
  }
  template <typename H>
  void Release(H h) {
    lock.Release(h);
  }
};

struct SkiplistIndexed {
  static const char* Name() { return "skiplist-indexed"; }
  SkiplistRangeLock lock;
  auto Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, SkiplistRangeLock::Handle* out) {
    return lock.TryLock(r, out);
  }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

// Zipf(theta) over [0, n) via an inverse-CDF table: build once, sample with a binary
// search. The tail of the CDF is dense, so popular ranks sit at the front.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  uint64_t Sample(Xoshiro256& rng) const {
    const double u = rng.NextDouble();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

class FileStore {
 public:
  explicit FileStore(uint64_t records)
      : records_(records), bytes_(records * kRecordSize, 0) {}

  uint64_t Records() const { return records_; }
  uint64_t SizeBytes() const { return records_ * kRecordSize; }

  void WriteAt(uint64_t offset, uint64_t sequence, Xoshiro256& rng) {
    Record rec{};
    rec.sequence = sequence;
    rec.checksum = sequence;
    for (uint64_t& w : rec.payload) {
      w = rng.Next();
      rec.checksum += w;
    }
    std::memcpy(bytes_.data() + offset, &rec, sizeof rec);
  }

  bool ValidateAt(uint64_t offset) const {
    Record rec;
    std::memcpy(&rec, bytes_.data() + offset, sizeof rec);
    uint64_t sum = rec.sequence;
    for (uint64_t w : rec.payload) {
      sum += w;
    }
    return sum == rec.checksum;
  }

 private:
  uint64_t records_;
  std::vector<uint8_t> bytes_;
};

// Zipf rank -> record index: multiplication by an odd constant is a bijection mod the
// power-of-two record count, scattering the hot head of the distribution across the
// whole file instead of packing it into adjacent bytes.
uint64_t ScatterRank(uint64_t rank, uint64_t records) {
  return (rank * 0x9E3779B97F4A7C15ull) & (records - 1);
}

// Simulated AddressSpace mirror of the file (see the header): client record accesses
// page-fault their page; a janitor thread trims rotating sixteenths of the file with
// MADV_DONTNEED the way a cache server drops cold regions under memory pressure.
class VmMirror {
 public:
  explicit VmMirror(uint64_t size_bytes)
      : as_(vm::VmVariant::kListScoped, 4), size_(size_bytes) {
    base_ = as_.Mmap(size_, vm::kProtRead | vm::kProtWrite);
    janitor_ = std::thread([this] {
      const uint64_t sixteenth = size_ / 16;
      unsigned slot = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        as_.MadviseDontNeed(base_ + slot * sixteenth, sixteenth);
        drops_.fetch_add(1, std::memory_order_relaxed);
        slot = (slot + 1) % 16;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  ~VmMirror() { Teardown(); }

  // Stops the janitor and unmaps the file: the unlink is synchronous, the page sweep
  // rides the drain. Idempotent — RunOne calls it before reading the sweep counters so
  // the teardown flush is included.
  void Teardown() {
    if (torn_down_) {
      return;
    }
    torn_down_ = true;
    stop_.store(true, std::memory_order_release);
    janitor_.join();
    as_.Munmap(base_, size_);
    as_.DrainSweeps();
  }

  void Touch(uint64_t offset) { as_.PageFault(base_ + offset, false); }

  uint64_t Drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t SweptPages() const { return as_.Stats().sweeps_swept_pages.load(); }

 private:
  vm::AddressSpace as_;
  uint64_t size_;
  uint64_t base_ = 0;
  std::thread janitor_;
  bool torn_down_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> drops_{0};
};

struct ColdStats {
  double drops_per_sec = 0.0;
  uint64_t swept_pages = 0;
};

// A non-null `cold_stats` runs the store against a VmMirror and fills in its counters.
template <typename LockT>
Summary RunOne(uint64_t records, int threads, double secs, int repeats,
               const ZipfSampler& zipf, std::atomic<uint64_t>* torn,
               ColdStats* cold_stats = nullptr) {
  LockT adapter;
  FileStore store(records);
  std::unique_ptr<VmMirror> mirror;
  const auto mirror_start = std::chrono::steady_clock::now();
  if (cold_stats != nullptr) {
    mirror = std::make_unique<VmMirror>(store.SizeBytes());
  }
  VmMirror* mp = mirror.get();
  const Summary s = MeasureThroughputRepeated(
      threads, secs, repeats, [&](int tid, std::atomic<bool>& stop) {
        Xoshiro256 rng(0xf11e5704e + static_cast<uint64_t>(tid) * 0x9e37);
        uint64_t ops = 0;
        uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (rng.NextBelow(kFullScanOneIn) == 0) {
            // Full-file scan: one Range::Full acquisition excludes every writer.
            auto h = adapter.Acquire(Range::Full());
            for (uint64_t i = 0; i < records; i += kFullScanStride) {
              if (mp != nullptr) {
                mp->Touch(i * kRecordSize);
              }
              if (!store.ValidateAt(i * kRecordSize)) {
                torn->fetch_add(1, std::memory_order_relaxed);
              }
            }
            adapter.Release(h);
          } else {
            const double roll = rng.NextDouble();
            const uint64_t idx = ScatterRank(zipf.Sample(rng), records);
            const uint64_t offset = idx * kRecordSize;
            if (mp != nullptr) {
              mp->Touch(offset);
            }
            if (roll < 0.6) {
              auto h = adapter.Acquire({offset, offset + kRecordSize});
              if (!store.ValidateAt(offset)) {
                torn->fetch_add(1, std::memory_order_relaxed);
              }
              adapter.Release(h);
            } else if (roll < 0.8) {
              auto h = adapter.Acquire({offset, offset + kRecordSize});
              store.WriteAt(offset, ++seq, rng);
              adapter.Release(h);
            } else if (roll < 0.9) {
              // Transaction over distinct records: the first acquisition blocks, the
              // rest are try-locks; any failure drops everything and retries. Plain
              // ascending-order blocking would NOT be safe here — a pending
              // Range::Full scan node sits before every record, so "txn holds A,
              // waits on B behind the scan; scan waits on A" is a cycle.
              uint64_t offs[kTxnRecords];
              for (uint64_t& o : offs) {
                o = ScatterRank(zipf.Sample(rng), records) * kRecordSize;
              }
              std::sort(std::begin(offs), std::end(offs));
              const auto end = std::unique(std::begin(offs), std::end(offs));
              using Handle = decltype(adapter.Acquire(Range{0, 1}));
              Handle handles[kTxnRecords];
              std::size_t held = 0;
              for (;;) {
                handles[0] = adapter.Acquire({offs[0], offs[0] + kRecordSize});
                held = 1;
                bool ok = true;
                for (auto* o = std::begin(offs) + 1; o != end; ++o) {
                  if (!adapter.TryAcquire({*o, *o + kRecordSize}, &handles[held])) {
                    ok = false;
                    break;
                  }
                  ++held;
                }
                if (ok) {
                  break;
                }
                for (std::size_t i = 0; i < held; ++i) {
                  adapter.Release(handles[i]);
                }
                held = 0;
                std::this_thread::yield();
              }
              for (auto* o = std::begin(offs); o != end; ++o) {
                if (mp != nullptr) {
                  mp->Touch(*o);
                }
                if (!store.ValidateAt(*o)) {
                  torn->fetch_add(1, std::memory_order_relaxed);
                }
                store.WriteAt(*o, ++seq, rng);
              }
              for (std::size_t i = 0; i < held; ++i) {
                adapter.Release(handles[i]);
              }
            } else {
              // Short scan: kScanRecords consecutive records, clamped at the end.
              const uint64_t first = idx < records - kScanRecords ? idx
                                                                  : records - kScanRecords;
              const uint64_t lo = first * kRecordSize;
              const uint64_t hi = lo + kScanRecords * kRecordSize;
              auto h = adapter.Acquire({lo, hi});
              for (uint64_t o = lo; o < hi; o += kRecordSize) {
                if (mp != nullptr) {
                  mp->Touch(o);
                }
                if (!store.ValidateAt(o)) {
                  torn->fetch_add(1, std::memory_order_relaxed);
                }
              }
              adapter.Release(h);
            }
          }
          ++ops;
        }
        return ops;
      });
  if (mp != nullptr) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - mirror_start)
            .count();
    mp->Teardown();  // include the teardown drain in the sweep counters
    cold_stats->drops_per_sec =
        elapsed > 0 ? static_cast<double>(mp->Drops()) / elapsed : 0.0;
    cold_stats->swept_pages = mp->SweptPages();
  }
  return s;
}

template <typename LockT>
void RunLock(const std::vector<int>& threads, uint64_t records, double secs,
             int repeats, const ZipfSampler& zipf, Table* table,
             std::atomic<uint64_t>* torn) {
  for (int t : threads) {
    const Summary s = RunOne<LockT>(records, t, secs, repeats, zipf, torn);
    table->AddRow({LockT::Name(), std::to_string(t), Table::Num(s.mean, 0),
                   Table::Num(s.RelStddevPct(), 1)});
  }
}

// Cold-drop rows go to their own table so the default table's schema (and its
// perf_diff history) is untouched.
template <typename LockT>
void RunLockCold(const std::vector<int>& threads, uint64_t records, double secs,
                 int repeats, const ZipfSampler& zipf, Table* table,
                 std::atomic<uint64_t>* torn) {
  for (int t : threads) {
    ColdStats cs;
    const Summary s = RunOne<LockT>(records, t, secs, repeats, zipf, torn, &cs);
    table->AddRow({LockT::Name(), std::to_string(t), "deferred",
                   Table::Num(s.mean, 0), Table::Num(s.RelStddevPct(), 1),
                   Table::Num(cs.drops_per_sec, 0),
                   std::to_string(cs.swept_pages)});
  }
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "macro_file_store --locks=skiplist-indexed,list-ex,list-lf,lustre-ex "
                 "--threads=1,2,4,8 --records=1048576 --zipf=0.99 --secs=0.25 "
                 "--repeats=1 --cold-drop=off|deferred --csv "
                 "--json=BENCH_file_store.json\n";
    return 0;
  }
  const std::string locks =
      cli.GetString("--locks", "skiplist-indexed,list-ex,list-lf,lustre-ex");
  const std::vector<int> threads = cli.GetIntList("--threads", {1, 2, 4, 8});
  const uint64_t records =
      std::bit_ceil(static_cast<uint64_t>(cli.GetInt("--records", 1 << 20)));
  const double zipf_theta = cli.GetDouble("--zipf", 0.99);
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");
  const std::string cold_arg = cli.GetString("--cold-drop", "off");
  const std::string json_path = cli.JsonPath();
  cli.RejectUnknown();
  const bool cold = cold_arg == "deferred";
  if (!cold && cold_arg != "off") {
    std::cerr << "unknown --cold-drop mode: " << cold_arg << "\n";
    return 1;
  }

  const srl::ZipfSampler zipf(records, zipf_theta);
  std::atomic<uint64_t> torn{0};

  std::cout << "\n=== file store — " << records << " records x " << srl::kRecordSize
            << " B, Zipf theta " << zipf_theta
            << ", 60r/20w/10txn/10scan + 1-in-" << srl::kFullScanOneIn
            << " full scans, ops/sec ===\n";
  srl::Table table({"lock", "threads", "ops/sec", "rel-stddev%"});
  auto want = [&](const char* name) {
    return locks.find(name) != std::string::npos;
  };
  if (want(srl::SkiplistIndexed::Name())) {
    srl::RunLock<srl::SkiplistIndexed>(threads, records, secs, repeats, zipf, &table,
                                       &torn);
  }
  if (want(srl::ListEx::Name())) {
    srl::RunLock<srl::ListEx>(threads, records, secs, repeats, zipf, &table, &torn);
  }
  if (want(srl::ListLf::Name())) {
    srl::RunLock<srl::ListLf>(threads, records, secs, repeats, zipf, &table, &torn);
  }
  if (want(srl::LustreEx::Name())) {
    srl::RunLock<srl::LustreEx>(threads, records, secs, repeats, zipf, &table, &torn);
  }
  table.Print(std::cout, csv);

  srl::Table cold_table({"lock", "threads", "cold-drop", "ops/sec", "rel-stddev%",
                         "drops/sec", "swept-pages"});
  if (cold) {
    std::cout << "\n=== file store + VM mirror — janitor drops cold sixteenths ("
              << cold_arg << " sweeps), record accesses page-fault ===\n";
    if (want(srl::SkiplistIndexed::Name())) {
      srl::RunLockCold<srl::SkiplistIndexed>(threads, records, secs, repeats, zipf,
                                             &cold_table, &torn);
    }
    if (want(srl::ListEx::Name())) {
      srl::RunLockCold<srl::ListEx>(threads, records, secs, repeats, zipf, &cold_table,
                                    &torn);
    }
    if (want(srl::ListLf::Name())) {
      srl::RunLockCold<srl::ListLf>(threads, records, secs, repeats, zipf, &cold_table,
                                    &torn);
    }
    if (want(srl::LustreEx::Name())) {
      srl::RunLockCold<srl::LustreEx>(threads, records, secs, repeats, zipf,
                                      &cold_table, &torn);
    }
    cold_table.Print(std::cout, csv);
  }

  if (torn.load() != 0) {
    std::cerr << "TORN READS: " << torn.load() << " — range exclusion broken\n";
    return 1;
  }

  srl::BenchJson json("macro_file_store");
  json.AddTable({{"records", std::to_string(records)},
                 {"zipf", std::to_string(zipf_theta)},
                 {"mix", "60r/20w/10txn/10scan+fullscan"}},
                table);
  if (cold) {
    json.AddTable({{"records", std::to_string(records)},
                   {"zipf", std::to_string(zipf_theta)},
                   {"cold_drop", cold_arg},
                   {"mix", "60r/20w/10txn/10scan+fullscan+janitor"}},
                  cold_table);
  }
  return json.Write(json_path) ? 0 : 1;
}
