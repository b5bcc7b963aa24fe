// Structural-operation fuzz for the simulated VM subsystem, aimed at the range-scoped
// variants (mmap/munmap/structural mprotect under partial-range write locks) but run
// against every variant so the full-lock configurations pin the reference behaviour.
//
// Two batteries:
//   * A sequential battery drives a seeded random mix of mmap / munmap / mprotect /
//     madvise / fault against a flat page->prot oracle that also tracks present pages,
//     including degenerate top-of-address-space ranges that force the scoped
//     classify-then-fallback path.
//   * A concurrent battery runs per-thread arenas (each with its own deterministic
//     oracle) plus continuous structural churn in disjoint ranges, while a checker
//     thread repeatedly takes the full-range lock and validates CheckInvariants().
//
// Registered under the `stress` label: runs in the plain configuration and under TSan
// (where the optimistic-walk / epoch-reclamation machinery gets its race coverage).
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/vm/address_space.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

// (variant, stripe count): every battery runs single-stripe for all variants (the
// reference semantics), and the scoped variants additionally run against a 4-stripe
// space so the per-stripe trees, seqcounts, and retire lists carry the same load.
struct FuzzParam {
  VmVariant variant;
  unsigned stripes;
};

std::string VariantTestName(const ::testing::TestParamInfo<FuzzParam>& info) {
  std::string name = VmVariantName(info.param.variant);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  if (info.param.stripes > 1) {
    name += "_s" + std::to_string(info.param.stripes);
  }
  return name;
}

class VmStructuralFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

// Flat reference model: page index -> prot for mapped pages, plus the present set.
struct PageOracle {
  std::map<uint64_t, uint32_t> prot;
  std::set<uint64_t> present;

  void Map(uint64_t addr, uint64_t pages, uint32_t p) {
    for (uint64_t i = 0; i < pages; ++i) {
      prot[addr / kPage + i] = p;
    }
  }
  bool Unmap(uint64_t first_page, uint64_t last_page) {
    bool any = false;
    for (uint64_t p = first_page; p < last_page; ++p) {
      any |= prot.erase(p) > 0;
      present.erase(p);
    }
    return any;
  }
  bool Mprotect(uint64_t first_page, uint64_t last_page, uint32_t p) {
    for (uint64_t q = first_page; q < last_page; ++q) {
      if (prot.count(q) == 0) {
        return false;
      }
    }
    for (uint64_t q = first_page; q < last_page; ++q) {
      prot[q] = p;
    }
    return true;
  }
  bool Fault(uint64_t addr, bool is_write) {
    const auto it = prot.find(addr / kPage);
    const uint32_t required = is_write ? kProtWrite : kProtRead;
    if (it == prot.end() || (it->second & required) != required) {
      return false;
    }
    present.insert(addr / kPage);
    return true;
  }
  void Madvise(uint64_t first_page, uint64_t last_page) {
    for (uint64_t p = first_page; p < last_page; ++p) {
      present.erase(p);
    }
  }
};

TEST_P(VmStructuralFuzzTest, SequentialMixMatchesOracle) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  Xoshiro256 rng(0x5eed + static_cast<uint64_t>(GetParam().variant) * 8 +
                 GetParam().stripes);
  PageOracle oracle;
  std::vector<std::pair<uint64_t, uint64_t>> regions;  // [start, end) of mmap calls
  const uint32_t prots[] = {kProtNone, kProtRead, kProtRead | kProtWrite};

  for (int step = 0; step < 6000; ++step) {
    const double roll = rng.NextDouble();
    if (regions.empty() || roll < 0.10) {
      const uint64_t pages = 1 + rng.NextBelow(24);
      const uint32_t prot = prots[rng.NextBelow(3)];
      const uint64_t addr = as.Mmap(pages * kPage, prot);
      ASSERT_NE(addr, 0u);
      oracle.Map(addr, pages, prot);
      regions.push_back({addr, addr + pages * kPage});
    } else if (roll < 0.22) {
      // Unmap a random sub-range of a random region (possibly already unmapped).
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t total = (re - rs) / kPage;
      const uint64_t off = rng.NextBelow(total);
      const uint64_t len = 1 + rng.NextBelow(total - off);
      const bool expect = oracle.Unmap(rs / kPage + off, rs / kPage + off + len);
      ASSERT_EQ(as.Munmap(rs + off * kPage, len * kPage), expect) << "step " << step;
    } else if (roll < 0.25) {
      // Degenerate top-of-address-space ranges. A wrapped range denotes nothing and
      // returns before taking any lock; a representable range in the last page cannot
      // be padded, exercising the scoped classify-then-fallback path.
      if (rng.NextChance(0.5)) {
        const uint64_t top = ~uint64_t{0} - rng.NextBelow(4) * kPage;
        ASSERT_FALSE(as.Munmap(top - 2 * kPage, 8 * kPage)) << "step " << step;
      } else {
        ASSERT_FALSE(as.Munmap(~uint64_t{0} - 2 * kPage + 1, kPage)) << "step " << step;
      }
    } else if (roll < 0.55) {
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t total = (re - rs) / kPage;
      const uint64_t off = rng.NextBelow(total);
      const uint64_t len = 1 + rng.NextBelow(total - off);
      const uint32_t prot = prots[rng.NextBelow(3)];
      const bool expect = oracle.Mprotect(rs / kPage + off, rs / kPage + off + len, prot);
      ASSERT_EQ(as.Mprotect(rs + off * kPage, len * kPage, prot), expect)
          << "step " << step;
    } else if (roll < 0.65) {
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t total = (re - rs) / kPage;
      const uint64_t off = rng.NextBelow(total);
      const uint64_t len = 1 + rng.NextBelow(total - off);
      ASSERT_TRUE(as.MadviseDontNeed(rs + off * kPage, len * kPage));
      oracle.Madvise(rs / kPage + off, rs / kPage + off + len);
    } else {
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t addr = rs + rng.NextBelow(re - rs);
      const bool is_write = rng.NextChance(0.5);
      ASSERT_EQ(as.PageFault(addr, is_write), oracle.Fault(addr, is_write))
          << "step " << step;
    }
    if (step % 200 == 0) {
      ASSERT_TRUE(as.CheckInvariants()) << "step " << step;
      ASSERT_EQ(as.PresentPages(), oracle.present.size()) << "step " << step;
    }
  }

  // Final deep check: the VMA snapshot must tile exactly the oracle's pages. Deferred
  // sweeps move the oracle's drain edge to the flush, so settle them first.
  as.DrainSweeps();
  std::map<uint64_t, uint32_t> from_vmas;
  for (const VmaInfo& v : as.SnapshotVmas()) {
    for (uint64_t p = v.start / kPage; p < v.end / kPage; ++p) {
      from_vmas[p] = v.prot;
    }
  }
  EXPECT_EQ(from_vmas, oracle.prot);
  EXPECT_EQ(as.PresentPages(), oracle.present.size());
  EXPECT_TRUE(as.CheckInvariants());
  if (as.ScopedStructural()) {
    // The degenerate munmaps above must have degraded through the fallback guard.
    EXPECT_GT(as.Stats().scoped_fallback.load(), 0u);
    EXPECT_GT(as.Stats().scoped_structural.load(), 0u);
  }
}

// A structural mprotect whose merge sweep would absorb a same-protection neighbour
// extending far past the padded lock span: erasing that VMA under a partial-range lock
// would race readers of its unlocked bytes, so the scoped variants must classify it as
// an escape and degrade to the full-range path — with identical semantics.
TEST_P(VmStructuralFuzzTest, MergeAbsorbingWideNeighbourFallsBack) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t a = as.Mmap(16 * kPage, kProtRead | kProtWrite);
  ASSERT_TRUE(as.Mprotect(a, kPage, kProtRead));  // split: [a, a+p) R | [a+p, a+16p) RW
  // Flipping [a, a+2p) back to RW merges all three pieces; the absorbed tail ends 13
  // pages past the padded span [a-p, a+3p).
  ASSERT_TRUE(as.Mprotect(a, 2 * kPage, kProtRead | kProtWrite));
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 1u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 16 * kPage, kProtRead | kProtWrite}));
  EXPECT_TRUE(as.CheckInvariants());
  if (as.ScopedStructural()) {
    EXPECT_GT(as.Stats().scoped_fallback.load(), 0u);
  }
}

// Concurrent battery: per-thread arenas with deterministic per-thread oracles, plus
// disjoint-range structural churn, while a checker thread validates global invariants.
TEST_P(VmStructuralFuzzTest, ConcurrentStructuralMixKeepsInvariants) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  constexpr int kThreads = 4;
  constexpr int kCycles = 4000;
  constexpr uint64_t kArenaPages = 48;
  std::atomic<bool> ok{true};
  std::atomic<bool> done{false};
  std::atomic<bool> checker_ok{true};

  std::thread checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (!as.CheckInvariants()) {
        checker_ok.store(false);
        return;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xf522 + static_cast<uint64_t>(t));
      PageOracle oracle;
      const uint64_t arena = as.Mmap(kArenaPages * kPage, kProtNone);
      if (arena == 0) {
        ok.store(false);
        return;
      }
      oracle.Map(arena, kArenaPages, kProtNone);
      const uint32_t prots[] = {kProtNone, kProtRead, kProtRead | kProtWrite};
      // Far past every mapping this run can create — beyond the last stripe window,
      // where the cursor allocator never carves: miss-unmaps probe here. (arena +
      // 2^24 pages is exactly one stripe span: on a multi-stripe space that is the
      // NEXT stripe's arena neighbourhood, not nowhere.)
      const uint64_t nowhere = AddressSpace::kMmapBase +
                               as.Stripes() * AddressSpace::kStripeSpan +
                               (uint64_t{1} << 20) * kPage;

      for (int c = 0; c < kCycles && ok.load(std::memory_order_relaxed); ++c) {
        const double roll = rng.NextDouble();
        if (roll < 0.35) {
          // Arena mprotect: always covered, so the result is deterministic.
          const uint64_t off = rng.NextBelow(kArenaPages);
          const uint64_t len = 1 + rng.NextBelow(kArenaPages - off);
          const uint32_t prot = prots[rng.NextBelow(3)];
          if (!as.Mprotect(arena + off * kPage, len * kPage, prot)) {
            ok.store(false);
            return;
          }
          oracle.Mprotect(arena / kPage + off, arena / kPage + off + len, prot);
        } else if (roll < 0.55) {
          // Structural churn: map, touch, unmap a scratch region; every outcome is
          // deterministic because the region is thread-private.
          const uint64_t pages = 1 + rng.NextBelow(8);
          const uint64_t scratch = as.Mmap(pages * kPage, kProtRead | kProtWrite);
          if (scratch == 0 || !as.PageFault(scratch, true) ||
              !as.Munmap(scratch, pages * kPage) ||
              as.PageFault(scratch, false) /* unmapped now */) {
            ok.store(false);
            return;
          }
        } else if (roll < 0.65) {
          // Miss-unmap: nothing is ever mapped there.
          if (as.Munmap(nowhere + rng.NextBelow(512) * kPage, kPage)) {
            ok.store(false);
            return;
          }
        } else if (roll < 0.75) {
          const uint64_t off = rng.NextBelow(kArenaPages);
          const uint64_t len = 1 + rng.NextBelow(kArenaPages - off);
          if (!as.MadviseDontNeed(arena + off * kPage, len * kPage)) {
            ok.store(false);
            return;
          }
          oracle.Madvise(arena / kPage + off, arena / kPage + off + len);
        } else {
          const uint64_t addr = arena + rng.NextBelow(kArenaPages * kPage);
          const bool is_write = rng.NextChance(0.5);
          if (as.PageFault(addr, is_write) != oracle.Fault(addr, is_write)) {
            ok.store(false);
            return;
          }
        }
      }
      // Closing sweep: the arena's final protection state must match the oracle.
      for (uint64_t p = 0; p < kArenaPages; ++p) {
        const bool expect_read = (oracle.prot[arena / kPage + p] & kProtRead) != 0;
        if (as.PageFault(arena + p * kPage, false) != expect_read) {
          ok.store(false);
          return;
        }
      }
    });
  }
  for (auto& th : workers) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  checker.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(checker_ok.load());
  EXPECT_TRUE(as.CheckInvariants());
  if (as.ScopedStructural()) {
    // The churn above is structural and nearly all of it fits its padded range, so the
    // scoped variants must have kept the bulk of it off the full-range path. The
    // legitimate remainder (~6% with these seeds) is arena mprotects whose merge sweep
    // would absorb a same-protection neighbour extending past the padded span — the
    // classify-then-fallback escape.
    EXPECT_GT(as.Stats().ScopedStructuralRate(), 0.9)
        << "scoped=" << as.Stats().scoped_structural.load()
        << " fallback=" << as.Stats().scoped_fallback.load();
    EXPECT_GT(as.Lock().RangedWriteAcquisitions(), 0u);
    // The speculative fault path must carry real load here, not just exist: per-thread
    // arena faults are the common case and the oracle above held them to exact
    // outcomes while the speculation ran.
    EXPECT_GT(as.Stats().FaultSpecOk(), 0u)
        << "speculative faults never engaged (retries="
        << as.Stats().fault_spec_retry.load()
        << " fallbacks=" << as.Stats().fault_spec_fallback.load() << ")";
  }
}

// mprotect-during-fault torn-read oracle. One writer flips a page's protection through
// the *metadata-only* speculative-mprotect path — the one mutation class invisible to
// the structural seqcount, so only the per-VMA seqlock stands between the lock-free
// fault and a torn (bounds, prot) read. Faulting threads bracket every fault with a
// snapshot of the writer's state log:
//
//   * a fault whose whole execution fits inside one stable window (same even log value
//     on both sides) has a deterministic answer — the logged protection decides it, and
//     any disagreement is a torn or stale read;
//   * the boundary-anchor page, which every flip moves a VMA boundary across but which
//     is *never unmapped and never loses read permission*, must be readable on every
//     single fault — a failed read there is the transient-gap bug (the walk observed
//     the mid-boundary-move hole and mistook it for unmapped space).
TEST_P(VmStructuralFuzzTest, MprotectDuringFaultTornReadOracle) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  // The glibc arena shape: [anchor RW | flip region | NONE tail]. The flip region
  // ([base+2p, base+4p)) toggles between RW (expand: the head of the NONE VMA joins
  // the RW VMA — kHeadMove) and NONE (shrink: the RW VMA's tail joins the NONE VMA —
  // kTailMove). Every flip after the initial split is a metadata-only boundary move
  // for the refined/scoped variants, and every flip drags a VMA boundary across the
  // flip region while the anchor's VMA end moves with it.
  const uint64_t base = as.Mmap(8 * kPage, kProtNone);
  ASSERT_NE(base, 0u);
  ASSERT_TRUE(as.Mprotect(base, 2 * kPage, kProtRead | kProtWrite));  // one-time split
  const uint64_t anchor = base;            // pages 0-1: always RW, never unmapped
  const uint64_t flip = base + 2 * kPage;  // pages 2-3: RW <-> NONE
  constexpr int kFlips = 4000;

  // Writer state log: odd while an mprotect is in flight; bit 1 of an even value
  // encodes whether the flip region is currently writable. Starts NONE (bit clear).
  std::atomic<uint64_t> wstate{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<bool> anchor_segv{false};
  std::atomic<uint64_t> total_faults{0};
  std::atomic<uint64_t> stable_window_faults{0};

  std::vector<std::thread> faulters;
  for (int t = 0; t < 2; ++t) {
    faulters.emplace_back([&, t] {
      Xoshiro256 rng(0x70a7 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        total_faults.fetch_add(1, std::memory_order_relaxed);
        if (rng.NextChance(0.3)) {
          // The anchor pages never change protection and are never unmapped; reads
          // must succeed on every single fault, mid-boundary-move included.
          if (!as.PageFault(anchor + rng.NextBelow(2 * kPage), false)) {
            anchor_segv.store(true, std::memory_order_relaxed);
          }
          continue;
        }
        const uint64_t s0 = wstate.load(std::memory_order_seq_cst);
        const bool r = as.PageFault(flip + rng.NextBelow(2 * kPage), true);
        const uint64_t s1 = wstate.load(std::memory_order_seq_cst);
        if (s0 == s1 && (s0 & 1) == 0) {
          // No mprotect began, ran, or ended anywhere inside this fault: the logged
          // protection is the truth for the entire window.
          stable_window_faults.fetch_add(1, std::memory_order_relaxed);
          const bool writable = (s0 & 2) != 0;
          if (r != writable) {
            torn.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Do not start flipping until the faulters are actually faulting, and hand the core
  // over regularly: on a single-CPU host the whole flip loop otherwise fits inside one
  // scheduler quantum and the "during" in mprotect-during-fault never happens.
  ASSERT_TRUE(srl::testing::EventuallyTrue(
      [&] { return total_faults.load(std::memory_order_relaxed) > 0; }));
  for (int i = 0; i < kFlips; ++i) {
    if (i % 16 == 0) {
      std::this_thread::yield();
    }
    const bool writable = (i % 2) == 0;  // expand first (flip starts NONE)
    const uint32_t prot = writable ? (kProtRead | kProtWrite) : kProtNone;
    wstate.fetch_add(1, std::memory_order_seq_cst);  // odd: in flight
    ASSERT_TRUE(as.Mprotect(flip, 2 * kPage, prot));
    // Close the window with the new protection encoded (bit 0 clears, bit 1 encodes
    // writability; the value stays strictly increasing so windows never alias).
    const uint64_t cur = wstate.load(std::memory_order_relaxed);
    wstate.store(((cur + 1) & ~uint64_t{2}) | (writable ? 2 : 0),
                 std::memory_order_seq_cst);
  }
  // Give the oracle a guaranteed quiet tail: with the log even and stable, faults now
  // have deterministic outcomes and must populate the stable-window count.
  EXPECT_TRUE(srl::testing::EventuallyTrue(
      [&] { return stable_window_faults.load(std::memory_order_relaxed) > 0; }));
  stop.store(true, std::memory_order_release);
  for (auto& th : faulters) {
    th.join();
  }

  EXPECT_FALSE(torn.load()) << "a fault inside a stable window contradicted the "
                               "logged protection: torn or stale prot read";
  EXPECT_FALSE(anchor_segv.load())
      << "a read fault on the never-unmapped, always-readable anchor pages failed — "
         "the transient-gap bug (walk observed a mid-boundary-move hole)";
  EXPECT_TRUE(as.CheckInvariants());
  if (as.RefinedMprotect()) {
    // The flips must really have exercised the metadata-only speculative path.
    EXPECT_GT(as.Stats().spec_success.load(), 0u);
  }
}

std::vector<FuzzParam> AllFuzzParams() {
  std::vector<FuzzParam> params;
  for (const VmVariant v : kAllVmVariants) {
    params.push_back({v, 1});
  }
  // Multi-stripe spaces for the variants whose machinery is per-stripe.
  params.push_back({VmVariant::kTreeScoped, 4});
  params.push_back({VmVariant::kListScoped, 4});
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VmStructuralFuzzTest,
                         ::testing::ValuesIn(AllFuzzParams()), VariantTestName);

}  // namespace
}  // namespace srl::vm
