#include "src/vm/vma_index.h"

#include <vector>

#include "src/vm/vm_stats.h"

namespace srl::vm {

VmaStripe::~VmaStripe() {
  // Nodes still linked at destruction belong to this stripe alone (retired nodes are
  // in retire_, whose own destructor drains them after a barrier). Collect first:
  // deleting while iterating would read freed links.
  std::vector<Vma*> live;
  live.reserve(tree_.Size());
  for (Vma* v = tree_.First(); v != nullptr; v = Next(v)) {
    live.push_back(v);
  }
  for (Vma* v : live) {
    delete v;
  }
}

void VmaStripe::EraseAndRetire(Vma* vma) {
  tree_.Erase(vma);
  // Published inside the open seqlock write section: a speculative fault that read this
  // VMA's fields re-validates the stripe's seqcount *after* its page install, so it
  // either observes the seq bump or this flag — never a clean validation against a
  // dead mapping.
  vma->detached.store(true, std::memory_order_release);
  retire_.Retire(vma);
}

Vma* VmaStripe::Find(uint64_t addr) const {
  Vma* n = tree_.Root();
  Vma* best = nullptr;
  while (n != nullptr) {
    if (n->End() > addr) {
      best = n;
      n = n->rb_left;
    } else {
      n = n->rb_right;
    }
  }
  return best;
}

bool VmaStripe::TryFindOptimistic(uint64_t addr, Vma** vma, uint64_t* snapshot) const {
  const uint64_t snap = seq_.ReadBegin();
  Vma* best = nullptr;
  Vma* n = tree_.Root();
  int steps = 0;
  while (n != nullptr && steps++ < kMaxWalkSteps) {
    if (n->End() > addr) {
      best = n;
      n = n->rb_left;
    } else {
      n = n->rb_right;
    }
  }
  if (n != nullptr || !seq_.Validate(snap)) {
    return false;  // step bound hit (transient cycle) or a mutation overlapped
  }
  *vma = best;
  *snapshot = snap;
  return true;
}

Vma* VmaStripe::FindOptimistic(uint64_t addr, VmStripeStats& slice) const {
  for (;;) {
    Vma* vma = nullptr;
    uint64_t snapshot = 0;
    if (TryFindOptimistic(addr, &vma, &snapshot)) {
      return vma;
    }
    slice.find_retries.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {

unsigned RoundStripes(unsigned stripes) {
  if (stripes < 1) {
    stripes = 1;
  }
  if (stripes > VmaIndex::kMaxStripes) {
    stripes = VmaIndex::kMaxStripes;
  }
  unsigned p = 1;
  while (p < stripes) {
    p <<= 1;
  }
  return p;
}

}  // namespace

VmaIndex::VmaIndex(unsigned stripes)
    : n_(RoundStripes(stripes)),
      stripes_(std::make_unique<CacheAligned<VmaStripe>[]>(n_)) {}

}  // namespace srl::vm
