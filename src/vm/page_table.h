// Present-page table — the simulation's stand-in for hardware page tables.
//
// The kernel's page-fault path, once it has validated the faulting address against the
// VMA metadata (under mmap_sem / the range lock), installs a page-table entry under
// finer-grained page-table locks, and zap_pte_range later visits only the populated
// PTE pages of an unmapped range. We reproduce that shape with 512-page *leaves* (the
// PTE-page analogue): each leaf is a present bitmap plus one install ticket per page.
// Leaves are hashed by leaf index into 64 shards, each behind its own spin lock; a leaf
// is allocated by the first install into it and freed when its last page goes. A
// major fault sets a bit under one shard lock, and RemoveRange / CountRange visit only
// the leaves of their range: O(min(leaves spanned, leaves resident) + pages touched).
//
// Striped address spaces (ConfigureStripes) partition the 64 shards into per-stripe
// *groups*: a leaf's stripe bits pick its group, and a Fibonacci hash of the leaf index
// spreads a stripe's leaves over the group's shards — so every fault of one stripe does
// not serialise on one lock, and a stripe-confined sweep never takes a shard lock a
// fault in another stripe could be holding. Unconfigured (stripe count 1), there is one
// group of 64 shards.
#ifndef SRL_VM_PAGE_TABLE_H_
#define SRL_VM_PAGE_TABLE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/sync/cacheline.h"
#include "src/sync/spin_lock.h"

namespace srl::vm {

class PageTable {
 public:
  static constexpr std::size_t kShards = 64;
  static constexpr uint64_t kLeafShift = 9;
  static constexpr uint64_t kLeafPages = uint64_t{1} << kLeafShift;

  // Binds the shard layout to the address-space striping. `stripe_page_shift` is the
  // stripe shift in page units (VmaIndex::kStripeShift - page shift) and `base_page`
  // the first stripe window's base in page units — the same origin VmaIndex::IndexOf
  // subtracts, without which every 64 GiB window (base is not span-aligned) would
  // straddle two shard groups and adjacent stripes would share shard locks. Both must
  // be leaf-aligned so no leaf straddles a window edge. `stripes` must be a power of
  // two. Call once, before any page is installed. Never calling it leaves one group of
  // 64 shards — the unstriped layout.
  void ConfigureStripes(uint64_t stripe_page_shift, uint64_t base_page,
                        unsigned stripes) {
    assert(stripe_page_shift >= kLeafShift && base_page % kLeafPages == 0);
    stripe_leaf_shift_ = stripe_page_shift - kLeafShift;
    base_leaf_ = base_page >> kLeafShift;
    groups_ = stripes < kShards ? stripes : static_cast<unsigned>(kShards);
    per_group_ = static_cast<unsigned>(kShards) / groups_;
    group_hash_shift_ = 64 - std::countr_zero(per_group_);
  }

  // Installs the page; returns true if it was not already present (a "major" fault).
  // On install, *ticket receives an install ticket (never 0) identifying THIS
  // installation of the page — a later RemoveExact with the same ticket removes the
  // page only if no one re-installed it in between. Tickets come from a per-shard
  // counter, not a per-leaf one, so they stay unique when a leaf is freed and the page
  // re-installed into a new one. On a minor fault (page already present) *ticket is
  // set to 0.
  bool Install(uint64_t page_index, uint64_t* ticket = nullptr) {
    const uint64_t li = page_index >> kLeafShift;
    Shard& s = ShardFor(li);
    std::lock_guard<SpinLock> g(s.lock);
    std::unique_ptr<Leaf>& slot = s.leaves[li];
    if (slot == nullptr) {
      slot.reset(new Leaf);
    }
    Leaf& leaf = *slot;
    const uint64_t off = page_index & (kLeafPages - 1);
    const uint64_t bit = uint64_t{1} << (off & 63);
    uint64_t t = 0;
    if ((leaf.bits[off >> 6] & bit) == 0) {
      leaf.bits[off >> 6] |= bit;
      ++leaf.present;
      t = s.next_ticket++;
      leaf.tickets[off] = t;
    }
    if (ticket != nullptr) {
      *ticket = t;
    }
    return t != 0;
  }

  bool Present(uint64_t page_index) const {
    return CountRange(page_index, page_index + 1) != 0;
  }

  // Drops one page; returns true if it was present. Blind removal: whatever install
  // currently backs the page is erased, including another thread's. Only the broken-
  // undo test hook uses this on the fault path; see RemoveExact.
  bool Remove(uint64_t page_index) {
    return RemoveRange(page_index, page_index + 1) != 0;
  }

  // Drops the page only if it is still backed by the install that produced `ticket`.
  // The speculative fault path uses this to undo ITS OWN install after a failed
  // validation: with deferred sweeps, the page it installed may already have been
  // swept and re-installed by a racing (winning) fault — a blind Remove would erase
  // the winner's page.
  bool RemoveExact(uint64_t page_index, uint64_t ticket) {
    const uint64_t li = page_index >> kLeafShift;
    Shard& s = ShardFor(li);
    std::lock_guard<SpinLock> g(s.lock);
    const auto it = s.leaves.find(li);
    const uint64_t off = page_index & (kLeafPages - 1);
    if (it == s.leaves.end()) {
      return false;
    }
    Leaf& leaf = *it->second;
    if (!leaf.Has(off) || leaf.tickets[off] != ticket) {
      return false;
    }
    leaf.Clear(off, off + 1);
    if (leaf.present == 0) {
      s.leaves.erase(it);
    }
    return true;
  }

  // Present pages in [first_page, last_page) — the fault-vs-unmap batteries assert this
  // drains to zero for every unmapped range. Not a consistent snapshot under concurrent
  // mutation: each leaf is counted under its own shard lock.
  std::size_t CountRange(uint64_t first_page, uint64_t last_page) const {
    std::size_t n = 0;
    ForEachLeaf(first_page, last_page, [&](Leaf& leaf, uint64_t a, uint64_t b) {
      n += leaf.Count(a, b);
      return false;
    });
    return n;
  }

  // Drops every page in [first_page, last_page), returning how many were present, and
  // frees the leaves it empties. Only the range's resident leaves are visited, so a
  // sweep costs its populated leaves and erased pages, never the stripe's resident set.
  std::size_t RemoveRange(uint64_t first_page, uint64_t last_page) {
    std::size_t erased = 0;
    ForEachLeaf(first_page, last_page, [&](Leaf& leaf, uint64_t a, uint64_t b) {
      erased += leaf.Clear(a, b);
      return leaf.present == 0;
    });
    return erased;
  }

  std::size_t Count() const { return CountRange(0, UINT64_MAX); }

  // All present page indices (tests / invariant checks; not a consistent snapshot under
  // concurrent mutation).
  std::vector<uint64_t> AllPages() const {
    std::vector<uint64_t> out;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard<SpinLock> g(shards_[i].value.lock);
      for (const auto& [li, leaf] : shards_[i].value.leaves) {
        for (uint64_t off = 0; off < kLeafPages; ++off) {
          if (leaf->Has(off)) {
            out.push_back((li << kLeafShift) + off);
          }
        }
      }
    }
    return out;
  }

 private:
  struct Leaf {
    uint64_t bits[kLeafPages / 64] = {};
    uint32_t present = 0;
    uint64_t tickets[kLeafPages] = {};  // meaningful only where the page's bit is set

    bool Has(uint64_t off) const { return (bits[off >> 6] >> (off & 63)) & 1; }

    // Applies `op(word, mask)` to every bitmap word overlapping offsets [a, b).
    template <typename Op>
    void ForEachWord(uint64_t a, uint64_t b, Op&& op) {
      for (uint64_t w = a >> 6; w <= (b - 1) >> 6; ++w) {
        const uint64_t lo = std::max(a, w << 6) - (w << 6);
        const uint64_t hi = std::min(b, (w + 1) << 6) - (w << 6);
        const uint64_t upto = hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
        op(bits[w], upto & ~((uint64_t{1} << lo) - 1));
      }
    }
    std::size_t Count(uint64_t a, uint64_t b) {
      std::size_t n = 0;
      ForEachWord(a, b,
                  [&](uint64_t& word, uint64_t mask) { n += std::popcount(word & mask); });
      return n;
    }
    std::size_t Clear(uint64_t a, uint64_t b) {
      std::size_t n = 0;
      ForEachWord(a, b, [&](uint64_t& word, uint64_t mask) {
        n += std::popcount(word & mask);
        word &= ~mask;
      });
      present -= static_cast<uint32_t>(n);
      return n;
    }
  };

  struct Shard {
    mutable SpinLock lock;
    std::unordered_map<uint64_t, std::unique_ptr<Leaf>> leaves;  // by leaf index
    // Install tickets start at 1 so 0 can mean "minor fault, no install of mine to
    // undo"; per shard, so a recycled leaf never reissues one.
    uint64_t next_ticket = 1;
  };

  // Leaf index relative to the first stripe window (leaves below it belong to group 0,
  // mirroring VmaIndex::IndexOf's clamp).
  uint64_t RelLeaf(uint64_t li) const { return li >= base_leaf_ ? li - base_leaf_ : 0; }

  unsigned GroupOf(uint64_t li) const {
    return static_cast<unsigned>(RelLeaf(li) >> stripe_leaf_shift_) & (groups_ - 1);
  }

  Shard& ShardFor(uint64_t li) const {
    const unsigned within =
        per_group_ == 1 ? 0
                        : static_cast<unsigned>((li * 0x9e3779b97f4a7c15ull) >>
                                                group_hash_shift_);
    return shards_[GroupOf(li) * per_group_ + within].value;
  }

  // Calls fn(leaf, a, b) — [a, b) the leaf offsets inside [first_page, last_page) —
  // for every resident leaf the range overlaps, under the leaf's shard lock, and frees
  // the leaf when fn returns true. A range spanning up to kShards leaves, or no more
  // leaves than its covering shards hold, probes each leaf index; a wider one scans
  // those shards' leaf maps instead.
  template <typename Fn>
  void ForEachLeaf(uint64_t first_page, uint64_t last_page, Fn&& fn) const {
    if (first_page >= last_page) {
      return;
    }
    const uint64_t l0 = first_page >> kLeafShift;
    const uint64_t l1 = (last_page - 1) >> kLeafShift;
    auto visit = [&](Shard& s, auto it) {
      const uint64_t base = it->first << kLeafShift;
      const uint64_t a = std::max(first_page, base) - base;
      const uint64_t b = std::min(last_page - 1, base + kLeafPages - 1) - base + 1;
      return fn(*it->second, a, b) ? s.leaves.erase(it) : std::next(it);
    };
    if (l1 - l0 >= kShards) {
      const std::vector<std::size_t> covering = ShardsCovering(l0, l1);
      std::size_t resident = 0;
      for (const std::size_t i : covering) {
        std::lock_guard<SpinLock> g(shards_[i].value.lock);
        resident += shards_[i].value.leaves.size();
      }
      if (l1 - l0 >= resident) {
        for (const std::size_t i : covering) {
          Shard& s = shards_[i].value;
          std::lock_guard<SpinLock> g(s.lock);
          for (auto it = s.leaves.begin(); it != s.leaves.end();) {
            it = it->first >= l0 && it->first <= l1 ? visit(s, it) : std::next(it);
          }
        }
        return;
      }
    }
    for (uint64_t li = l0; li <= l1; ++li) {
      Shard& s = ShardFor(li);
      std::lock_guard<SpinLock> g(s.lock);
      const auto it = s.leaves.find(li);
      if (it != s.leaves.end()) {
        visit(s, it);
      }
    }
  }

  // Shard indices whose group intersects leaves [l0, l1], deduplicated.
  std::vector<std::size_t> ShardsCovering(uint64_t l0, uint64_t l1) const {
    std::vector<std::size_t> out;
    const uint64_t s0 = RelLeaf(l0) >> stripe_leaf_shift_;
    const uint64_t s1 = RelLeaf(l1) >> stripe_leaf_shift_;
    const uint64_t groups = std::min<uint64_t>(s1 - s0 + 1, groups_);
    for (uint64_t s = s0; s < s0 + groups; ++s) {
      const unsigned g = static_cast<unsigned>(s) & (groups_ - 1);
      for (unsigned j = 0; j < per_group_; ++j) {
        out.push_back(static_cast<std::size_t>(g) * per_group_ + j);
      }
    }
    return out;
  }

  mutable CacheAligned<Shard> shards_[kShards];
  // Shard-layout parameters; written once by ConfigureStripes before any use.
  uint64_t stripe_leaf_shift_ = 15;  // matches VmaIndex::kStripeShift - 12 - kLeafShift
  uint64_t base_leaf_ = 0;           // first window base, leaf units
  unsigned groups_ = 1;
  unsigned per_group_ = kShards;
  unsigned group_hash_shift_ = 58;  // 64 - log2(per_group_)
};

}  // namespace srl::vm

#endif  // SRL_VM_PAGE_TABLE_H_
