// The machine's core count, the one topology fact this tree uses: the admission
// gate's default cap, the default stripe count of scoped address spaces, the epoch
// layer's derived batch sizes and watchdog threshold, and the number of per-thread
// counter slots all scale with it, and every bench JSON table records it as `cpus`.
//
// Computed once per process. glibc answers hardware_concurrency() by reading sysfs
// (microseconds per call), and every gated lock reads the count at construction, so
// an uncached count would put a sysfs read on every lock set-up.
//
// Per-thread counter slots. A counter that every thread bumps on every operation is a
// cache line that every core writes, and relaxed increments do not stop it bouncing.
// So hot counters keep one copy per slot (SlotBlocks), each thread increments only the
// copy of its own slot, and readers sum the slots. A thread's slot is its
// registration-order token mod CounterSlots(); threads share a slot only once more
// than CounterSlots() of them have counted. Increments stay atomic, so shared slots
// stay exact.
#ifndef SRL_SYNC_TOPOLOGY_H_
#define SRL_SYNC_TOPOLOGY_H_

#include <atomic>
#include <bit>
#include <memory>
#include <thread>

namespace srl {

// Online CPUs as hardware_concurrency() reports them, or 1 when it cannot say.
inline unsigned CpuCount() {
  static const unsigned n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }();
  return n;
}

// Counter slots per process: the smallest power of two of at least 4 x CpuCount().
inline unsigned CounterSlots() {
  static const unsigned n = std::bit_ceil(4 * CpuCount());
  return n;
}

namespace detail {

// The calling thread's counter slot plus one; 0 until its first CounterSlot() call.
// Constant-initialised, so reading it needs no thread_local init guard.
inline constinit thread_local unsigned counter_slot_plus_one = 0;

// The first-call path of CounterSlot(), kept out of line so that the common path
// inlines into every counting call site.
[[gnu::noinline]] inline unsigned AssignCounterSlot() {
  static std::atomic<unsigned> next_token{0};
  const unsigned slot =
      next_token.fetch_add(1, std::memory_order_relaxed) & (CounterSlots() - 1);
  counter_slot_plus_one = slot + 1;
  return slot;
}

}  // namespace detail

// The calling thread's counter slot, in [0, CounterSlots()).
inline unsigned CounterSlot() {
  const unsigned s = detail::counter_slot_plus_one;
  return s != 0 ? s - 1 : detail::AssignCounterSlot();
}

// One array of `n` T per counter slot. A slot's array is allocated on the first
// Mine() from that slot and published with one CAS; arrays live until destruction.
// T should be cache-line aligned (CacheAligned<...>), so that no two slots' elements,
// and no slot element and foreign heap data, share a line.
template <typename T>
class SlotBlocks {
 public:
  explicit SlotBlocks(unsigned n)
      : n_(n), blocks_(std::make_unique<std::atomic<T*>[]>(CounterSlots())) {}
  ~SlotBlocks() {
    for (unsigned i = 0; i < CounterSlots(); ++i) {
      delete[] blocks_[i].load(std::memory_order_relaxed);
    }
  }

  SlotBlocks(const SlotBlocks&) = delete;
  SlotBlocks& operator=(const SlotBlocks&) = delete;

  unsigned Size() const { return n_; }

  // The calling thread's slot array (n elements).
  T* Mine() {
    std::atomic<T*>& slot = blocks_[CounterSlot()];
    T* block = slot.load(std::memory_order_acquire);
    return block != nullptr ? block : Publish(slot);
  }

  // Calls f(block) for every slot array allocated so far.
  template <typename F>
  void ForEach(F&& f) const {
    for (unsigned i = 0; i < CounterSlots(); ++i) {
      if (const T* block = blocks_[i].load(std::memory_order_acquire)) {
        f(block);
      }
    }
  }

 private:
  // The slot's first Mine(); out of line, like AssignCounterSlot().
  [[gnu::noinline]] T* Publish(std::atomic<T*>& slot) {
    T* fresh = new T[n_]();
    T* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // a thread sharing the slot published first
    return expected;
  }

  unsigned n_;
  std::unique_ptr<std::atomic<T*>[]> blocks_;
};

}  // namespace srl

#endif  // SRL_SYNC_TOPOLOGY_H_
