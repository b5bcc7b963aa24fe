// Concurrent stress tests for the simulated VM subsystem: per-thread arenas exercising
// the glibc pattern (boundary-moving mprotects + first-touch faults) in parallel, plus
// adversarial mixes with structural operations.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/vm/address_space.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

class VmConcurrentTest : public ::testing::TestWithParam<VmVariant> {};

// Each thread owns an arena and runs expand / touch / trim cycles. Because arenas are
// disjoint, every thread can verify its own view deterministically while racing with
// the others through the shared lock and mm_rb.
TEST_P(VmConcurrentTest, DisjointArenasKeepPerThreadSemantics) {
  AddressSpace as(GetParam());
  constexpr int kThreads = 4;
  constexpr int kCycles = 60;
  constexpr uint64_t kArenaPages = 64;
  std::atomic<bool> ok{true};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x1234 + t);
      const uint64_t arena = as.Mmap(kArenaPages * kPage, kProtNone);
      if (arena == 0) {
        ok.store(false);
        return;
      }
      uint64_t committed = 0;  // pages currently RW
      for (int c = 0; c < kCycles; ++c) {
        if (committed < kArenaPages - 1) {
          // Expand by a random number of pages. Always leave at least one PROT_NONE
          // tail page, as glibc arenas do — consuming the whole uncommitted VMA would
          // be a structural merge rather than a boundary move.
          const uint64_t grow = 1 + rng.NextBelow(kArenaPages - 1 - committed);
          if (!as.Mprotect(arena + committed * kPage, grow * kPage,
                           kProtRead | kProtWrite)) {
            ok.store(false);
            return;
          }
          committed += grow;
          // Touch every new page (write faults) and verify a write past the boundary
          // still faults.
          for (uint64_t p = committed - grow; p < committed; ++p) {
            if (!as.PageFault(arena + p * kPage + 8, true)) {
              ok.store(false);
              return;
            }
          }
          if (committed < kArenaPages &&
              as.PageFault(arena + committed * kPage, true)) {
            ok.store(false);  // past the committed boundary: PROT_NONE must fault
            return;
          }
        }
        // Trim back when the arena fills, and occasionally otherwise.
        if (committed == kArenaPages - 1 || (committed > 4 && rng.NextChance(0.4))) {
          const uint64_t keep = 1 + rng.NextBelow(committed - 1);
          const uint64_t drop = committed - keep;
          if (!as.Mprotect(arena + keep * kPage, drop * kPage, kProtNone) ||
              !as.MadviseDontNeed(arena + keep * kPage, drop * kPage)) {
            ok.store(false);
            return;
          }
          committed = keep;
          if (as.PageFault(arena + keep * kPage, false)) {
            ok.store(false);  // trimmed region must be inaccessible
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());

  // The refined variants must have taken the speculative path for nearly all
  // mprotects — the paper measured >99% for this pattern; the first split per arena is
  // the only structural one per thread plus rare validation retries.
  const VmStats& st = as.Stats();
  if (as.RefinedMprotect()) {
    EXPECT_GT(st.SpeculationSuccessRate(), 0.95)
        << "spec=" << st.spec_success.load() << " fallback=" << st.spec_fallback.load()
        << " retries=" << st.spec_retries.load();
  }
}

// Adds structural chaos: threads also mmap/munmap scratch regions continuously, forcing
// speculation retries and full-path fallbacks to interleave with refined operations.
TEST_P(VmConcurrentTest, StructuralChurnRemainsConsistent) {
  AddressSpace as(GetParam());
  constexpr int kThreads = 4;
  std::atomic<bool> ok{true};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xbeef + t);
      const uint64_t arena = as.Mmap(32 * kPage, kProtNone);
      uint64_t committed = 0;
      for (int i = 0; i < 150; ++i) {
        const double roll = rng.NextDouble();
        if (roll < 0.45) {
          // Arena ratchet.
          if (committed < 31) {
            if (!as.Mprotect(arena + committed * kPage, kPage, kProtRead | kProtWrite)) {
              ok.store(false);
            }
            ++committed;
            as.PageFault(arena + (committed - 1) * kPage, true);
          } else {
            if (!as.Mprotect(arena, 31 * kPage, kProtNone)) {
              ok.store(false);
            }
            as.MadviseDontNeed(arena, 31 * kPage);
            committed = 0;
          }
        } else if (roll < 0.6) {
          // Structural churn: map and unmap a scratch region.
          const uint64_t scratch = as.Mmap(4 * kPage, kProtRead | kProtWrite);
          if (scratch == 0 || !as.PageFault(scratch, true) ||
              !as.Munmap(scratch, 4 * kPage)) {
            ok.store(false);
          }
        } else {
          // Read traffic over the committed prefix.
          if (committed > 0) {
            const uint64_t p = rng.NextBelow(committed);
            if (!as.PageFault(arena + p * kPage, false)) {
              ok.store(false);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());
}

// Readers hammer one shared read-only region while writers churn protections on their
// own regions; all fault outcomes on the shared region must stay stable.
TEST_P(VmConcurrentTest, SharedReadOnlyRegionStableUnderChurn) {
  AddressSpace as(GetParam());
  const uint64_t shared = as.Mmap(16 * kPage, kProtRead);
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0x51ee + t);
      while (!stop.load()) {
        if (!as.PageFault(shared + rng.NextBelow(16) * kPage, false)) {
          ok.store(false);
        }
      }
    });
  }
  std::thread churner([&] {
    Xoshiro256 rng(0xc4u);
    const uint64_t arena = as.Mmap(32 * kPage, kProtNone);
    for (int i = 0; i < 400; ++i) {
      const uint64_t off = rng.NextBelow(31);
      as.Mprotect(arena + off * kPage, kPage, kProtRead | kProtWrite);
      as.PageFault(arena + off * kPage, true);
      as.Mprotect(arena + off * kPage, kPage, kProtNone);
    }
    stop.store(true);
  });
  churner.join();
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VmConcurrentTest, ::testing::ValuesIn(kAllVmVariants),
    [](const ::testing::TestParamInfo<VmVariant>& info) {
      std::string name = VmVariantName(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace srl::vm
