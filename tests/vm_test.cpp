// Single-threaded semantic tests for the simulated VM subsystem, including a
// property test that shadows every operation in a flat page→protection map.
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/vm/address_space.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

class VmSemanticsTest : public ::testing::TestWithParam<VmVariant> {
 protected:
  AddressSpace as_{GetParam()};
};

TEST_P(VmSemanticsTest, MmapCreatesVma) {
  const uint64_t addr = as_.Mmap(10 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(addr, 0u);
  EXPECT_EQ(addr % kPage, 0u);
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 1u);
  EXPECT_EQ(vmas[0], (VmaInfo{addr, addr + 10 * kPage, kProtRead | kProtWrite}));
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, MmapRoundsUpToPages) {
  const uint64_t addr = as_.Mmap(100, kProtRead);
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 1u);
  EXPECT_EQ(vmas[0].end - vmas[0].start, kPage);
  EXPECT_NE(addr, 0u);
}

TEST_P(VmSemanticsTest, MunmapWhole) {
  const uint64_t addr = as_.Mmap(4 * kPage, kProtRead);
  EXPECT_TRUE(as_.Munmap(addr, 4 * kPage));
  EXPECT_TRUE(as_.SnapshotVmas().empty());
  EXPECT_FALSE(as_.Munmap(addr, 4 * kPage)) << "already unmapped";
}

TEST_P(VmSemanticsTest, MunmapMiddleSplits) {
  const uint64_t a = as_.Mmap(10 * kPage, kProtRead);
  EXPECT_TRUE(as_.Munmap(a + 4 * kPage, 2 * kPage));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 4 * kPage, kProtRead}));
  EXPECT_EQ(vmas[1], (VmaInfo{a + 6 * kPage, a + 10 * kPage, kProtRead}));
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, MunmapDropsPages) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtRead | kProtWrite);
  EXPECT_TRUE(as_.PageFault(a, true));
  EXPECT_TRUE(as_.PageFault(a + kPage, true));
  EXPECT_EQ(as_.PresentPages(), 2u);
  EXPECT_TRUE(as_.Munmap(a, 4 * kPage));
  // The unlink is synchronous but the page sweep is deferred by default; DrainSweeps
  // is the edge after which the pages must be gone.
  as_.DrainSweeps();
  EXPECT_EQ(as_.PresentPages(), 0u);
}

TEST_P(VmSemanticsTest, MunmapDefersTheSweepUntilDrain) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtRead | kProtWrite);
  EXPECT_TRUE(as_.PageFault(a, true));
  EXPECT_TRUE(as_.PageFault(a + kPage, true));
  EXPECT_TRUE(as_.Munmap(a, 4 * kPage));
  EXPECT_TRUE(as_.SnapshotVmas().empty()) << "the unlink itself is synchronous";
  EXPECT_EQ(as_.PendingSweepPages(), 4u);
  EXPECT_EQ(as_.PresentPages(), 2u) << "a sweep below the flush threshold stays queued";
  as_.DrainSweeps();
  EXPECT_EQ(as_.PendingSweepPages(), 0u);
  EXPECT_EQ(as_.PresentPages(), 0u);
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, MprotectWholeVma) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtNone);
  EXPECT_TRUE(as_.Mprotect(a, 4 * kPage, kProtRead | kProtWrite));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 1u);
  EXPECT_EQ(vmas[0].prot, kProtRead | kProtWrite);
}

TEST_P(VmSemanticsTest, MprotectHeadSplits) {
  const uint64_t a = as_.Mmap(8 * kPage, kProtNone);
  EXPECT_TRUE(as_.Mprotect(a, 3 * kPage, kProtRead | kProtWrite));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 3 * kPage, kProtRead | kProtWrite}));
  EXPECT_EQ(vmas[1], (VmaInfo{a + 3 * kPage, a + 8 * kPage, kProtNone}));
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, MprotectMiddleSplitsInThree) {
  const uint64_t a = as_.Mmap(9 * kPage, kProtRead);
  EXPECT_TRUE(as_.Mprotect(a + 3 * kPage, 3 * kPage, kProtNone));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 3u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 3 * kPage, kProtRead}));
  EXPECT_EQ(vmas[1], (VmaInfo{a + 3 * kPage, a + 6 * kPage, kProtNone}));
  EXPECT_EQ(vmas[2], (VmaInfo{a + 6 * kPage, a + 9 * kPage, kProtRead}));
}

// The Figure 2 scenario: protecting the head of the second of two adjacent VMAs with
// the first VMA's protection moves the boundary without changing the VMA count.
TEST_P(VmSemanticsTest, Figure2BoundaryMove) {
  const uint64_t a = as_.Mmap(8 * kPage, kProtNone);
  ASSERT_TRUE(as_.Mprotect(a, 2 * kPage, kProtRead | kProtWrite));  // structural split
  ASSERT_EQ(as_.SnapshotVmas().size(), 2u);
  // Now: [a, a+2p) RW | [a+2p, a+8p) NONE. Extend the RW region by two pages.
  ASSERT_TRUE(as_.Mprotect(a + 2 * kPage, 2 * kPage, kProtRead | kProtWrite));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 4 * kPage, kProtRead | kProtWrite}));
  EXPECT_EQ(vmas[1], (VmaInfo{a + 4 * kPage, a + 8 * kPage, kProtNone}));
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, MprotectTailMoveShrinks) {
  const uint64_t a = as_.Mmap(8 * kPage, kProtNone);
  ASSERT_TRUE(as_.Mprotect(a, 4 * kPage, kProtRead | kProtWrite));
  // Shrink the RW region: its tail joins the NONE neighbour.
  ASSERT_TRUE(as_.Mprotect(a + 2 * kPage, 2 * kPage, kProtNone));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 2 * kPage, kProtRead | kProtWrite}));
  EXPECT_EQ(vmas[1], (VmaInfo{a + 2 * kPage, a + 8 * kPage, kProtNone}));
}

TEST_P(VmSemanticsTest, MprotectMergesAllThree) {
  const uint64_t a = as_.Mmap(6 * kPage, kProtRead);
  ASSERT_TRUE(as_.Mprotect(a + 2 * kPage, 2 * kPage, kProtNone));
  ASSERT_EQ(as_.SnapshotVmas().size(), 3u);
  // Restoring the middle merges everything back into one VMA.
  ASSERT_TRUE(as_.Mprotect(a + 2 * kPage, 2 * kPage, kProtRead));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 1u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 6 * kPage, kProtRead}));
}

TEST_P(VmSemanticsTest, MprotectUnmappedFails) {
  EXPECT_FALSE(as_.Mprotect(0x100000, kPage, kProtRead));
  const uint64_t a = as_.Mmap(2 * kPage, kProtRead);
  // Range extending past the mapping (across the guard page) must fail too.
  EXPECT_FALSE(as_.Mprotect(a, 4 * kPage, kProtNone));
}

TEST_P(VmSemanticsTest, MprotectAcrossAdjacentVmas) {
  const uint64_t a = as_.Mmap(8 * kPage, kProtRead);
  ASSERT_TRUE(as_.Mprotect(a + 4 * kPage, 4 * kPage, kProtWrite | kProtRead));
  ASSERT_EQ(as_.SnapshotVmas().size(), 2u);
  // Spans both VMAs: structural path, single resulting VMA.
  ASSERT_TRUE(as_.Mprotect(a + 2 * kPage, 4 * kPage, kProtNone));
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 3u);
  EXPECT_EQ(vmas[1], (VmaInfo{a + 2 * kPage, a + 6 * kPage, kProtNone}));
  EXPECT_TRUE(as_.CheckInvariants());
}

TEST_P(VmSemanticsTest, PageFaultChecksProtection) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtRead);
  EXPECT_TRUE(as_.PageFault(a, false));
  EXPECT_FALSE(as_.PageFault(a, true)) << "write to read-only mapping";
  EXPECT_FALSE(as_.PageFault(a - kPage, false)) << "guard page is unmapped";
  ASSERT_TRUE(as_.Mprotect(a, 4 * kPage, kProtNone));
  EXPECT_FALSE(as_.PageFault(a, false)) << "PROT_NONE denies reads";
  EXPECT_EQ(as_.Stats().fault_errors.load(), 3u);
}

TEST_P(VmSemanticsTest, MajorFaultOnlyOnFirstTouch) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtRead | kProtWrite);
  EXPECT_TRUE(as_.PageFault(a, true));
  EXPECT_TRUE(as_.PageFault(a, true));
  EXPECT_TRUE(as_.PageFault(a + 1, false));  // same page
  EXPECT_EQ(as_.Stats().MajorFaults(), 1u);
  EXPECT_EQ(as_.Stats().Faults(), 3u);
}

TEST_P(VmSemanticsTest, MadviseDropsPages) {
  const uint64_t a = as_.Mmap(4 * kPage, kProtRead | kProtWrite);
  as_.PageFault(a, true);
  as_.PageFault(a + kPage, true);
  EXPECT_EQ(as_.PresentPages(), 2u);
  EXPECT_TRUE(as_.MadviseDontNeed(a, 4 * kPage));
  as_.DrainSweeps();  // deferred contract: pre-call installs are gone after the drain
  EXPECT_EQ(as_.PresentPages(), 0u);
  as_.PageFault(a, true);
  EXPECT_EQ(as_.Stats().MajorFaults(), 3u) << "retouch faults again";
}

// The glibc-arena pattern (§1, §5.2): after the first structural split, every
// expand/shrink is a boundary move and must take the speculative path.
TEST_P(VmSemanticsTest, ArenaPatternSpeculates) {
  const uint64_t a = as_.Mmap(64 * kPage, kProtNone);
  ASSERT_TRUE(as_.Mprotect(a, 4 * kPage, kProtRead | kProtWrite));  // structural
  for (int i = 1; i < 15; ++i) {
    ASSERT_TRUE(as_.Mprotect(a + 4 * i * kPage, 4 * kPage, kProtRead | kProtWrite));
  }
  for (int i = 14; i >= 1; --i) {
    ASSERT_TRUE(as_.Mprotect(a + 4 * i * kPage, 4 * kPage, kProtNone));
  }
  const auto vmas = as_.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + 4 * kPage, kProtRead | kProtWrite}));
  const auto& st = as_.Stats();
  if (as_.RefinedMprotect()) {
    // 28 of 29 mprotects are boundary moves; only the first split is structural.
    EXPECT_EQ(st.spec_success.load(), 28u);
    EXPECT_EQ(st.spec_fallback.load(), 1u);
    EXPECT_GE(st.SpeculationSuccessRate(), 0.9);
  } else {
    EXPECT_EQ(st.spec_success.load(), 0u);
  }
  if (as_.ScopedStructural()) {
    // The structural fallback of the arena pattern (the first split) must itself have
    // stayed range-scoped: no full-range write degradation for in-range mutations.
    EXPECT_GE(st.scoped_structural.load(), 1u);
    EXPECT_EQ(st.scoped_fallback.load(), 0u);
  }
  EXPECT_TRUE(as_.CheckInvariants());
}

// Randomized property test: every operation is shadowed in a flat page→prot map and
// fault outcomes are cross-checked for a sample of addresses after every step.
TEST_P(VmSemanticsTest, RandomOpsMatchFlatOracle) {
  Xoshiro256 rng(0x7777 + static_cast<uint64_t>(GetParam()));
  std::map<uint64_t, uint32_t> oracle;  // page index -> prot
  std::vector<std::pair<uint64_t, uint64_t>> regions;  // [start, end) of live mmaps

  const uint32_t prots[] = {kProtNone, kProtRead, kProtRead | kProtWrite};

  for (int step = 0; step < 1500; ++step) {
    const double roll = rng.NextDouble();
    if (regions.empty() || roll < 0.08) {
      const uint64_t pages = 1 + rng.NextBelow(32);
      const uint32_t prot = prots[rng.NextBelow(3)];
      const uint64_t addr = as_.Mmap(pages * kPage, prot);
      ASSERT_NE(addr, 0u);
      for (uint64_t p = 0; p < pages; ++p) {
        oracle[addr / kPage + p] = prot;
      }
      regions.push_back({addr, addr + pages * kPage});
    } else if (roll < 0.13) {
      // Unmap a random sub-range of a random region.
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t total = (re - rs) / kPage;
      const uint64_t off = rng.NextBelow(total);
      const uint64_t len = 1 + rng.NextBelow(total - off);
      as_.Munmap(rs + off * kPage, len * kPage);
      for (uint64_t p = 0; p < len; ++p) {
        oracle.erase(rs / kPage + off + p);
      }
    } else if (roll < 0.55) {
      // Mprotect a random sub-range; legality judged by the oracle.
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t total = (re - rs) / kPage;
      const uint64_t off = rng.NextBelow(total);
      const uint64_t len = 1 + rng.NextBelow(total - off);
      const uint32_t prot = prots[rng.NextBelow(3)];
      bool covered = true;
      for (uint64_t p = 0; p < len; ++p) {
        if (oracle.count(rs / kPage + off + p) == 0) {
          covered = false;
        }
      }
      ASSERT_EQ(as_.Mprotect(rs + off * kPage, len * kPage, prot), covered)
          << "step " << step;
      if (covered) {
        for (uint64_t p = 0; p < len; ++p) {
          oracle[rs / kPage + off + p] = prot;
        }
      }
    } else {
      // Fault at a random address in a random region; compare with oracle.
      const auto [rs, re] = regions[rng.NextBelow(regions.size())];
      const uint64_t addr = rs + rng.NextBelow(re - rs);
      const bool is_write = rng.NextChance(0.5);
      const auto it = oracle.find(addr / kPage);
      const uint32_t required = is_write ? kProtWrite : kProtRead;
      const bool expect = it != oracle.end() && (it->second & required) == required;
      ASSERT_EQ(as_.PageFault(addr, is_write), expect) << "step " << step;
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(as_.CheckInvariants()) << "step " << step;
    }
  }
  // Final deep check: the VMA snapshot must tile exactly the oracle's pages.
  std::map<uint64_t, uint32_t> from_vmas;
  for (const VmaInfo& v : as_.SnapshotVmas()) {
    for (uint64_t p = v.start / kPage; p < v.end / kPage; ++p) {
      from_vmas[p] = v.prot;
    }
  }
  EXPECT_EQ(from_vmas, oracle);
  EXPECT_TRUE(as_.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VmSemanticsTest, ::testing::ValuesIn(kAllVmVariants),
    [](const ::testing::TestParamInfo<VmVariant>& info) {
      std::string name = VmVariantName(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// The benches resolve every --variants entry through VmVariantFromName, so a name must
// map back to its own variant, and a retired backend's name must be rejected rather
// than silently resolved to another variant.
TEST(VmVariantTest, NamesRoundTripAndRetiredNameIsRejected) {
  std::set<std::string> names;
  for (const VmVariant v : kAllVmVariants) {
    bool ok = false;
    EXPECT_EQ(VmVariantFromName(VmVariantName(v), &ok), v) << VmVariantName(v);
    EXPECT_TRUE(ok) << VmVariantName(v);
    names.insert(VmVariantName(v));
  }
  EXPECT_EQ(names.size(), std::size(kAllVmVariants)) << "two variants share a name";
  bool ok = true;
  VmVariantFromName("list-lf-scoped", &ok);
  EXPECT_FALSE(ok) << "a retired backend's name still resolves";
}

}  // namespace
}  // namespace srl::vm
