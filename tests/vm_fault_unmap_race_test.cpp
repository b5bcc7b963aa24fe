// Adversarial fault-vs-unmap oracle battery for the lock-free speculative page-fault
// path (and, as a control, the locked fault paths of the full/refined variants).
//
// The speculative fault's headline claim is a memory-ordering claim: a fault that loses
// the race to a munmap must never leave a page present in an unmapped range, and must
// never report an outcome justified only by a freed VMA's metadata. This battery hunts
// exactly those bugs:
//
//   * Generation-tagged arenas. The mmap cursor never reuses addresses, so an address
//     uniquely identifies the one mapping (generation) that ever covered it — each
//     generation's fixed protection is an *exact* oracle for every fault outcome at its
//     addresses, concurrent unmaps notwithstanding:
//       - a fault that SUCCEEDS must have been permitted by that generation's
//         protection ("no fault observed a freed VMA's prot": a stale or foreign VMA's
//         protection justifying an access is flagged the moment it happens);
//       - a fault that FAILS while the generation's teardown provably had not begun by
//         the time the fault returned (the `retiring` flag, set before Munmap, is still
//         clear *after* the fault) is a spurious SIGSEGV on a live mapping — the
//         transient-gap bug a mid-boundary-move walk could produce.
//   * Post-munmap drain. After every Munmap returns, all pages of the unmapped range
//     must vanish and stay vanished: an in-flight fault may transiently re-install one,
//     but only with a validation failure it must then undo. A page that never drains is
//     a stale install — the bug that installing *after* validating would produce.
//   * Broken-ordering demonstration. A test-only hook inverts the install/validate
//     order (and widens the race window); the same drain oracle must then catch a stale
//     page within a bounded number of generations, proving the battery has teeth — and
//     the correct ordering must survive the identical widened window untouched.
//
// Registered under the `stress` label (plain + TSan); TSan is the torn-read detector
// backing the oracle's linearizability reasoning.
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/vm/address_space.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

// (variant, stripe count): the battery's ordering claims are per-stripe statements
// since the sharding refactor, so the scoped variants run against both a single-stripe
// and a multi-stripe space (generations round-robin across stripes in the latter).
struct RaceParam {
  VmVariant variant;
  unsigned stripes;
};

std::string VariantTestName(const ::testing::TestParamInfo<RaceParam>& info) {
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

int GenerationBudget() {
  // SRL_RACE_GENS scales the battery (the 100-consecutive-iterations TSan run uses the
  // default; bigger soaks can turn it up).
  if (const char* env = std::getenv("SRL_RACE_GENS")) {
    return std::max(1, std::atoi(env));
  }
  return 40;
}

class VmFaultUnmapRaceTest : public ::testing::TestWithParam<RaceParam> {};

// One mapping lifetime. Plain fields are published via the release store of the
// generation index and never change afterwards; the retiring flags are the teardown
// announcements the spurious-SIGSEGV oracle keys on.
struct Generation {
  uint64_t base = 0;
  uint64_t pages = 0;
  uint32_t prot = 0;
  std::atomic<bool> retiring_head{false};  // first half unmap announced
  std::atomic<bool> retiring{false};       // full unmap announced
  std::atomic<uint64_t> attempts{0};       // faults issued against this generation
};

TEST_P(VmFaultUnmapRaceTest, FaultVsUnmapOracle) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  constexpr int kFaulters = 3;
  constexpr uint64_t kArenaPages = 16;
  const int generations = GenerationBudget();

  std::vector<Generation> gens(static_cast<std::size_t>(generations));
  std::atomic<int> published{-1};
  std::atomic<bool> stop{false};
  std::atomic<bool> prot_violation{false};     // success a live prot cannot justify
  std::atomic<bool> spurious_segv{false};      // failure with teardown provably not begun

  std::vector<std::thread> faulters;
  for (int t = 0; t < kFaulters; ++t) {
    faulters.emplace_back([&, t] {
      Xoshiro256 rng(0xface + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int idx = published.load(std::memory_order_acquire);
        if (idx < 0) {
          std::this_thread::yield();
          continue;
        }
        Generation& g = gens[static_cast<std::size_t>(idx)];
        const uint64_t page = rng.NextBelow(g.pages);
        const uint64_t addr = g.base + page * kPage + rng.NextBelow(kPage);
        const bool is_write = rng.NextChance(0.4);
        const uint32_t required = is_write ? kProtWrite : kProtRead;
        const bool permitted = (g.prot & required) == required;
        const bool r = as.PageFault(addr, is_write);
        if (r && !permitted) {
          // The only mapping that ever covered `addr` forbids this access: the fault
          // must have trusted a freed/foreign VMA's protection or a torn read.
          prot_violation.store(true, std::memory_order_relaxed);
        }
        if (!r && permitted) {
          // Failure is legal only if the covering mapping's teardown had begun. The
          // flag is set (seq_cst) strictly before Munmap is invoked, so reading it
          // clear *after* the fault completed proves the mapping was fully live for
          // the fault's entire execution — the fault had no excuse to fail.
          const bool torn_down = page < g.pages / 2
                                     ? g.retiring_head.load(std::memory_order_seq_cst) ||
                                           g.retiring.load(std::memory_order_seq_cst)
                                     : g.retiring.load(std::memory_order_seq_cst);
          if (!torn_down) {
            spurious_segv.store(true, std::memory_order_relaxed);
          }
        }
        g.attempts.fetch_add(1, std::memory_order_release);
      }
    });
  }

  Xoshiro256 rng(0x5eed4);
  for (int i = 0; i < generations; ++i) {
    Generation& g = gens[static_cast<std::size_t>(i)];
    g.prot = (i % 2 == 0) ? (kProtRead | kProtWrite) : kProtRead;
    g.pages = kArenaPages;
    // Generations round-robin across the stripes so every stripe's seqcount, retire
    // list, and page-table shard group carries fault-vs-unmap races.
    g.base = as.MmapInStripe(static_cast<unsigned>(i) % as.Stripes(), g.pages * kPage,
                             g.prot);
    ASSERT_NE(g.base, 0u);
    published.store(i, std::memory_order_release);

    // Let the faulters race this generation for a while before tearing it down.
    const uint64_t target = 24 + rng.NextBelow(64);
    ASSERT_TRUE(srl::testing::EventuallyTrue(
        [&] { return g.attempts.load(std::memory_order_acquire) >= target; }))
        << "faulters stalled on generation " << i;

    if (rng.NextChance(0.5)) {
      // Partial unmap first: the head half dies while faults keep hammering both
      // halves (second-half outcomes must stay exact throughout).
      g.retiring_head.store(true, std::memory_order_seq_cst);
      ASSERT_TRUE(as.Munmap(g.base, (g.pages / 2) * kPage)) << "generation " << i;
      // Deferred sweeps move the drain edge from "Munmap returned" to "the covering
      // sweep flushed": DrainSweeps is that edge. A straggler fault in flight at the
      // drain may still transiently re-install, but must undo — EventuallyTrue.
      as.DrainSweeps();
      EXPECT_TRUE(srl::testing::EventuallyTrue([&] {
        return as.PresentPagesInRange(g.base, (g.pages / 2) * kPage) == 0;
      })) << "stale page(s) in the unmapped head half of generation " << i
          << " — a fault that lost the race left its install behind";
    }
    g.retiring.store(true, std::memory_order_seq_cst);
    ASSERT_TRUE(as.Munmap(g.base, g.pages * kPage)) << "generation " << i;
    as.DrainSweeps();
    EXPECT_TRUE(srl::testing::EventuallyTrue(
        [&] { return as.PresentPagesInRange(g.base, g.pages * kPage) == 0; }))
        << "stale page(s) in unmapped generation " << i;
  }

  stop.store(true, std::memory_order_release);
  for (auto& th : faulters) {
    th.join();
  }

  EXPECT_FALSE(prot_violation.load()) << "a fault succeeded against an access its "
                                         "generation's protection forbids";
  EXPECT_FALSE(spurious_segv.load()) << "a fault failed while its mapping was provably "
                                        "live and untouched";
  // Terminal sweep: no unmapped range (addresses are never reused) may hold a page.
  as.DrainSweeps();
  for (const Generation& g : gens) {
    EXPECT_EQ(as.PresentPagesInRange(g.base, g.pages * kPage), 0u);
  }
  EXPECT_TRUE(as.CheckInvariants());
  if (as.ScopedStructural()) {
    // The battery must actually exercise the speculative path, not just its fallback.
    EXPECT_GT(as.Stats().FaultSpecOk(), 0u);
  }
}

// The install-before-validate ordering is the load-bearing line of the speculative
// fault. Invert it (test hook) and the drain oracle above must catch the stale page it
// strands — within a bounded number of generations, on the same machine, with the same
// oracle. The control leg re-runs the identical widened-window harness with the correct
// ordering and must stay clean, so the detection cannot be a false positive.
TEST_P(VmFaultUnmapRaceTest, BrokenValidateBeforeInstallIsCaught) {
  if (!AddressSpace(GetParam().variant).ScopedStructural()) {
    GTEST_SKIP() << "only scoped variants have the speculative fault path";
  }
  // The widened window parks the faulting thread between its two speculative steps for
  // ~thousands of yields, giving the unmapper time to run a complete munmap inside the
  // window on any machine, single-core included.
  constexpr uint32_t kWindowYields = 400;
  constexpr int kMaxGenerations = 400;

  auto run_leg = [&](bool validate_before_install) {
    AddressSpace as(GetParam().variant, GetParam().stripes);
    // Threshold 1: Munmap flushes its own one-page sweep before it returns, so its
    // return is the drain edge and a page present afterwards is a stale install the
    // sweep missed. Without it the sweep stays queued and the control leg would see
    // the unswept page. (BrokenUndoSweepCheckIsCaught below covers the undo side.)
    as.SetSweepFlushThreshold(1);
    as.TestOnlySetSpecFaultOrdering(validate_before_install, kWindowYields);
    std::atomic<uint64_t> pub_base{0};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> completed{0};

    std::thread faulter([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t base = pub_base.load(std::memory_order_acquire);
        if (base == 0) {
          std::this_thread::yield();
          continue;
        }
        as.PageFault(base, true);
        completed.fetch_add(1, std::memory_order_release);
      }
    });

    int stale_generations = 0;
    for (int i = 0; i < kMaxGenerations && stale_generations == 0; ++i) {
      const uint64_t base = as.Mmap(kPage, kProtRead | kProtWrite);
      pub_base.store(base, std::memory_order_release);
      const uint64_t c0 = completed.load(std::memory_order_acquire);
      // Wait until the faulter is provably working on this generation, then unmap
      // while it races. The generation stays published: faults issued after the unmap
      // observe the bumped seqcount, find nothing, and fail without installing, so
      // they keep the completion counter moving without disturbing the oracle.
      srl::testing::EventuallyTrue(
          [&] { return completed.load(std::memory_order_acquire) > c0; });
      as.Munmap(base, kPage);
      // Any fault in flight at munmap time has finished once two more faults complete
      // (the +2 covers one straggler plus one full successor); after that, a page
      // still present here can only be a stale install that will never be undone.
      const uint64_t c1 = completed.load(std::memory_order_acquire);
      srl::testing::EventuallyTrue(
          [&] { return completed.load(std::memory_order_acquire) >= c1 + 2; });
      if (as.PresentPagesInRange(base, kPage) != 0) {
        ++stale_generations;
      }
    }
    stop.store(true, std::memory_order_release);
    faulter.join();
    return stale_generations;
  };

  EXPECT_GT(run_leg(/*validate_before_install=*/true), 0)
      << "the battery failed to catch a deliberately broken validate-before-install "
         "ordering — the oracle has lost its teeth";
  EXPECT_EQ(run_leg(/*validate_before_install=*/false), 0)
      << "correct install-before-validate ordering left a stale page behind";
}

// Deferred-sweep extension of the oracle: the losing-fault undo must consult the sweep
// queue and remove only its OWN install (ticket-exact). The interleaving that needs it:
//
//   loser L installs P (ticket t1)  →  DONTNEED enqueues P  →  the flusher claims and
//   erases P  →  winner W re-installs P (ticket t2)  →  L's validation fails and it
//   undoes.
//
// A blind `Remove(P)` undo — the pre-deferral code — destroys W's install: P reads
// absent although the last settled operation on it was W's successful fault, the
// stale-ABSENCE mirror of the stale-page bug. The correct undo either defers to a
// still-pending sweep or calls RemoveExact(P, t1), which cannot touch t2. Each
// generation forces that interleaving with the deterministic park gate: L parks
// between install and validate (TestOnlyParkNextSpecFault) while the main thread
// bumps the stripe seqcount (scratch mmap, making L a loser), flushes L's install
// (threshold-1 DONTNEED), re-installs as the winner, then flips the arena read-only
// so L's retry is denied rather than repairing the damage with a fresh install. Only
// then is L released. The broken leg must observe vanished winner pages in nearly
// every generation (the gate leaves no timing luck to hope for); the correct leg must
// never observe one.
TEST_P(VmFaultUnmapRaceTest, BrokenUndoSweepCheckIsCaught) {
  if (!AddressSpace(GetParam().variant).ScopedStructural()) {
    GTEST_SKIP() << "only scoped variants have the speculative fault path";
  }
  constexpr int kGenerations = 50;

  auto run_leg = [&](bool undo_sweep_check) {
    AddressSpace as(GetParam().variant, GetParam().stripes);
    as.TestOnlySetUndoSweepCheck(undo_sweep_check);
    // Every enqueue crosses the threshold, so MadviseDontNeed flushes its own sweep
    // before returning — the flusher runs exactly between L's install and undo.
    as.SetSweepFlushThreshold(1);
    int stale_generations = 0;
    for (int i = 0; i < kGenerations; ++i) {
      const uint64_t arena = as.MmapInStripe(0, kPage, kProtRead | kProtWrite);
      if (arena == 0) {
        break;  // stripe window exhausted (cannot happen within the budget)
      }
      as.TestOnlyParkNextSpecFault();
      std::thread loser([&] { as.PageFault(arena, true); });
      // Wait until L holds the park (it has installed P and will not validate until
      // released). A false return means L's walk fell back to the locked path and the
      // token went unconsumed — the generation is inconclusive, skip it.
      if (!srl::testing::EventuallyTrue([&] { return as.TestOnlySpecFaultParked(); })) {
        as.TestOnlyReleaseParkedFault();
        loser.join();
        continue;
      }
      as.MmapInStripe(0, kPage, kProtRead | kProtWrite);  // seq bump: L must lose
      as.MadviseDontNeed(arena, kPage);   // enqueue + immediate flush erases L's install
      as.PageFault(arena, true);          // winner re-install (fresh ticket)
      as.Mprotect(arena, kPage, kProtRead);  // deny L's retry attempts
      as.TestOnlyReleaseParkedFault();
      loser.join();
      if (as.PresentPagesInRange(arena, kPage) == 0) {
        // The winner's page vanished: only an undo that removed an install it did not
        // own can do that (no unmap or DONTNEED covered it after the winner's fault).
        ++stale_generations;
      }
    }
    return stale_generations;
  };

  EXPECT_GT(run_leg(/*undo_sweep_check=*/false), 0)
      << "the battery failed to catch the reverted (blind) losing-fault undo — the "
         "sweep-queue check has lost its teeth";
  EXPECT_EQ(run_leg(/*undo_sweep_check=*/true), 0)
      << "the ticket-exact, sweep-queue-aware undo removed a winning fault's install";
}

INSTANTIATE_TEST_SUITE_P(
    ScopedAndControls, VmFaultUnmapRaceTest,
    ::testing::Values(RaceParam{VmVariant::kTreeScoped, 1},
                      RaceParam{VmVariant::kListScoped, 1},
                      RaceParam{VmVariant::kTreeFull, 1},
                      RaceParam{VmVariant::kListRefined, 1},
                      RaceParam{VmVariant::kListLfScoped, 1},
                      // Multi-stripe spaces: the install-then-validate ordering must
                      // hold per stripe, with generations spread across all four.
                      RaceParam{VmVariant::kTreeScoped, 4},
                      RaceParam{VmVariant::kListScoped, 4},
                      RaceParam{VmVariant::kListLfScoped, 4}),
    VariantTestName);

}  // namespace
}  // namespace srl::vm
