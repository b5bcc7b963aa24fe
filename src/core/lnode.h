// List node of the list-based range locks (paper Listing 1) and its tagged-pointer
// helpers.
#ifndef SRL_CORE_LNODE_H_
#define SRL_CORE_LNODE_H_

#include <atomic>
#include <cstdint>

#include "src/epoch/node_pool.h"

namespace srl {

// One acquired (or requested) range in a lock's list. A node present and unmarked in the
// list *is* the acquired lock for [start, end).
//
// The least significant bit of `next` is the logical-delete mark: releasing a range sets
// it with a single fetch_add(1) (wait-free), and marked nodes are physically unlinked by
// whichever traversal encounters them (Harris-style helping).
struct LNode {
  uint64_t start = 0;
  uint64_t end = 0;
  std::atomic<uintptr_t> next{0};
  bool reader = false;  // used by the reader-writer variant only

  // Free-list linkage for NodePool. Deliberately distinct from `next`: a retired node's
  // `next` must stay frozen (marked + pointing at its unlink-time successor) because
  // traversals that found the node before it was unlinked may still follow that pointer
  // until their epoch critical section ends.
  LNode* pool_next = nullptr;

  // Handle chaining for a lock that spreads its ranges over several lists: an
  // acquisition covering several lists owns one node per list, linked through this
  // field in ascending list order. ListLockFreeRangeLock chains its buckets this way,
  // and the VM's list lock (src/vm/vm_lock.cpp) its stripes. Written by the acquiring
  // thread before the handle is handed out and read only by the releasing owner (handle
  // transfer between threads synchronizes via the transfer itself), so the field needs
  // no atomicity. Other threads' traversals read only start/end/next and never follow
  // siblings.
  LNode* sibling = nullptr;
};

inline constexpr uintptr_t kMarkBit = 1;

inline bool IsMarked(uintptr_t word) { return (word & kMarkBit) != 0; }
inline uintptr_t Unmark(uintptr_t word) { return word & ~kMarkBit; }
inline uintptr_t MarkedWord(const LNode* node) {
  return reinterpret_cast<uintptr_t>(node) | kMarkBit;
}
inline uintptr_t NodeWord(const LNode* node) { return reinterpret_cast<uintptr_t>(node); }
inline LNode* ToNode(uintptr_t word) { return reinterpret_cast<LNode*>(Unmark(word)); }

}  // namespace srl

#endif  // SRL_CORE_LNODE_H_
