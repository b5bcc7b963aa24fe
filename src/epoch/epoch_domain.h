// Epoch-based memory reclamation (paper §4.4).
//
// The lock-less list traversals of the range lock read nodes that concurrent threads may
// simultaneously unlink. A node therefore cannot be freed at unlink time; it is *retired*
// and only reclaimed once every thread that might still hold a reference has provably
// moved on. The paper uses RCU for its kernel implementation and this epoch scheme for
// user space; we implement the user-space scheme exactly:
//
//   * every thread owns an epoch counter, incremented before the first and after the last
//     reference to a list node in an operation (so: odd = inside a critical section);
//   * a thread that needs to recycle retired memory runs a *barrier*: it snapshots all
//     odd epochs and waits for each to change, which proves the owning threads have left
//     the critical sections that could reference the retired nodes.
//
// Memory-model note: entering a critical section is a seq_cst RMW and the barrier reads
// epochs with seq_cst. This gives the store-load ordering the scheme needs (announce
// in-CS before reading shared pointers; unlink before reading epochs) — the same fence
// discipline used by folly's RCU and crossbeam-epoch. On x86 the RMWs are full fences
// anyway, so this costs nothing over the paper's implicit sequential consistency.
#ifndef SRL_EPOCH_EPOCH_DOMAIN_H_
#define SRL_EPOCH_EPOCH_DOMAIN_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sync/cacheline.h"
#include "src/sync/pause.h"
#include "src/sync/topology.h"

namespace srl {

// A reclamation domain: a set of threads whose critical sections guard each other's
// retired memory. Most code uses EpochDomain::Global(); separate instances exist so tests
// can exercise the machinery in isolation.
class EpochDomain {
 public:
  // Static record table. Sized for the oversubscription benches with headroom
  // (bench/abl_oversub's default sweep stops at 256 concurrent threads); each record
  // is one cache line, so the table costs kMaxThreads * 64 bytes of static storage.
  static constexpr std::size_t kMaxThreads = 2048;

  // Per-thread epoch record. Obtained once per thread (cached in a ThreadSlot by
  // CurrentThreadRec) and released when the thread exits. Fields beyond `epoch` and
  // `in_use` are written by the owning thread only (relaxed atomics where the barrier
  // watchdog also reads them; `quantum_ops` stays plain because nothing else looks).
  struct alignas(kCacheLineSize) ThreadRec {
    std::atomic<uint64_t> epoch{0};   // odd while inside a critical section
    std::atomic<bool> in_use{false};  // slot allocated to a live thread
    std::atomic<uint32_t> depth{0};   // nesting level; owner-thread writes only
    // Epoch-per-quantum state (EpochQuantumGuard).
    uint32_t quantum_ops = 0;                 // operations completed in the open quantum
    std::atomic<bool> quantum_open{false};    // quantum owns one `depth` unit while true
    // Guard-scope heartbeat: bumped on quantum-guard entry (odd = inside a guard's
    // scope) and exit (even = parked between guards). The barrier watchdog samples it
    // to tell "idle between guards, holding nothing" from "preempted mid-guard".
    std::atomic<uint64_t> quantum_ticks{0};
    // Set by a barrier that has been waiting on this record's idle-open quantum: a
    // polite eviction notice. The owner acknowledges on its next guard by refreshing
    // (or reopening) its section; a barrier that waits past the force-quiesce
    // threshold with the notice unacknowledged closes the section itself.
    std::atomic<bool> quantum_revoked{false};
  };

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // The process-wide domain shared by all range locks and concurrent structures
  // ("each thread has only two pools, regardless of the number of range locks it
  // accesses" — §4.4).
  static EpochDomain& Global();

  // Claims a free thread record. Aborts the process if more than kMaxThreads concurrent
  // threads register (a deliberate static limit, as in most epoch implementations).
  ThreadRec* AcquireRec();

  // Returns a record to the free set. The caller must not be in a critical section.
  void ReleaseRec(ThreadRec* rec);

  // Marks the start of a critical section for `rec` (epoch becomes odd). Reentrant:
  // nested Enter/Exit pairs (e.g. a range-lock acquisition inside a skip-list
  // operation's critical section) only toggle the epoch at the outermost level, so the
  // whole nest stays protected. A nested Enter piggy-backs on an existing section —
  // usually an open quantum's — so it must also defend against the barrier watchdog:
  // it bumps the guard-scope heartbeat (making the section visibly live), then
  // validates the section was not (and is not being) force-quiesced, refreshing or
  // reopening it via CAS on the epoch word so this Enter and a concurrent force-close
  // can never both win. Without that, a plain guard entered into an idle quantum in
  // the instant the watchdog decides could run inside a closed section.
  static void Enter(ThreadRec* rec) {
    const uint32_t d = rec->depth.load(std::memory_order_relaxed);
    rec->depth.store(d + 1, std::memory_order_relaxed);
    if (d == 0) {
      rec->epoch.fetch_add(1, std::memory_order_seq_cst);
      return;
    }
    rec->quantum_ticks.store(rec->quantum_ticks.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
    uint64_t e = rec->epoch.load(std::memory_order_relaxed);
    if ((e & 1) == 0) {
      // The watchdog already closed the idle section this depth unit belongs to:
      // reopen before any reference is taken (plain fetch_add — the watchdog never
      // touches an even epoch).
      rec->quantum_revoked.store(false, std::memory_order_relaxed);
      rec->epoch.fetch_add(1, std::memory_order_seq_cst);
    } else if (rec->quantum_revoked.load(std::memory_order_relaxed)) {
      // Eviction notice posted: acknowledge by refreshing in place (odd -> odd),
      // racing the watchdog's close CAS on the same expected value.
      rec->quantum_revoked.store(false, std::memory_order_relaxed);
      if (!rec->epoch.compare_exchange_strong(e, e + 2, std::memory_order_seq_cst)) {
        rec->epoch.fetch_add(1, std::memory_order_seq_cst);  // e reloaded even: reopen
      }
    }
  }

  // Marks the end of a critical section for `rec` (epoch becomes even again at the
  // outermost level). Nested exits bump the heartbeat back to even, mirroring Enter.
  static void Exit(ThreadRec* rec) {
    const uint32_t d = rec->depth.load(std::memory_order_relaxed) - 1;
    rec->depth.store(d, std::memory_order_relaxed);
    if (d == 0) {
      rec->epoch.fetch_add(1, std::memory_order_release);
      return;
    }
    rec->quantum_ticks.store(rec->quantum_ticks.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
  }

  // Closes `rec`'s open epoch-per-quantum section, if any (see EpochQuantumGuard).
  // Always safe on the owning thread: quantum sections hold no references between
  // guards. MANDATORY before running Barrier(): two threads barriering with their
  // quanta open would otherwise each wait forever on the other's idle odd epoch —
  // each barrier skips only *self* (the watchdog would eventually break the tie, but
  // only after the force-quiesce threshold). If the watchdog already force-closed the
  // section, only the depth unit is dropped; the CAS keeps owner and watchdog from
  // both closing it.
  static void QuiesceQuantum(ThreadRec* rec) {
    if (!rec->quantum_open.load(std::memory_order_relaxed)) {
      return;
    }
    rec->quantum_open.store(false, std::memory_order_relaxed);
    rec->quantum_ops = 0;
    rec->quantum_revoked.store(false, std::memory_order_relaxed);
    const uint32_t d = rec->depth.load(std::memory_order_relaxed) - 1;
    rec->depth.store(d, std::memory_order_relaxed);
    if (d != 0) {
      return;  // nested guards still own the section
    }
    uint64_t e = rec->epoch.load(std::memory_order_relaxed);
    while ((e & 1) != 0 &&
           !rec->epoch.compare_exchange_weak(e, e + 1, std::memory_order_release)) {
    }
  }

  // A recorded set of in-flight critical sections — the non-blocking half of the grace
  // protocol. Snapshot() records every section live at call time; Elapsed() polls
  // (never waits) whether all of them have since exited. Memory unlinked before the
  // snapshot may be reclaimed once Elapsed() first returns true: any section that
  // could still reference it was live at snapshot time (it started before the unlink
  // and had not exited) and is therefore recorded. Epoch-per-quantum readers made this
  // split necessary — a quantum parks a thread's epoch odd across whole operation
  // batches, so *waiting* for it (Barrier) costs a scheduler round on a loaded box,
  // while deferring the free until a later poll costs nothing.
  class GraceTicket {
   public:
    GraceTicket() = default;

    // True once every recorded section has exited. Prunes satisfied entries, so
    // repeated polls get cheaper; monotone (true stays true).
    bool Elapsed() {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].epoch->load(std::memory_order_acquire) == entries_[i].seen) {
          entries_[keep++] = entries_[i];
        }
      }
      entries_.resize(keep);
      return entries_.empty();
    }

   private:
    friend class EpochDomain;
    struct Entry {
      const std::atomic<uint64_t>* epoch;
      uint64_t seen;
    };
    std::vector<Entry> entries_;
  };

  // Records every critical section in progress at call time. `self` (may be null) is
  // skipped — a thread's own section never guards memory it retires itself.
  GraceTicket Snapshot(const ThreadRec* self = nullptr) const;

  // Allocation-free fast path of Snapshot(): true if no critical section other than
  // `self`'s is in flight right now, i.e. grace for anything already unlinked has
  // trivially elapsed. Reclaimers call this before building a ticket so the common
  // quiescent case costs a handful of loads on their hot paths.
  bool QuiescentNow(const ThreadRec* self = nullptr) const;

  // Waits until every critical section that was in progress when the call started has
  // finished. After Barrier() returns, memory unlinked before the call is unreachable
  // from any live traversal and may be reclaimed. `self` (may be null) is skipped.
  // Callers must close their own open quantum first (QuiesceQuantum) — see GraceTicket
  // for the non-blocking alternative that needs no such care.
  //
  // Watchdog: a quantum section that stays *idle* — open, exactly one depth unit, its
  // tick heartbeat even and unmoving — past ForceQuiesceAfter() is force-quiesced from
  // the barrier side, so one thread parked between guards cannot pin retired memory
  // forever (the classic failure mode of quiescent-state schemes; liburcu answers it
  // with an explicit offline call, this answers it with eviction). Protocol: the
  // barrier posts a revocation notice, keeps observing for a confirmation window, and
  // only then CASes the idle epoch closed; the owner's next guard notices the even
  // epoch (or the notice) before taking any reference and re-opens a fresh section.
  // Every close/refresh of the section is a CAS on the epoch word, so owner and
  // watchdog can never both close it. The owner's fast path stays free of fences: the
  // handshake instead leans on the confirmation window — a heartbeat store that a
  // multi-millisecond observation window cannot see is not something cache-coherent
  // hardware produces (and the standard's visibility "should" clause backs it) — the
  // deliberate trade for keeping the quantum optimization's cost profile intact.
  void Barrier(const ThreadRec* self = nullptr);

  // Idle threshold for the barrier watchdog; zero disables force-quiesce entirely.
  // The default is generous — the watchdog is a liveness backstop, not a scheduler.
  void SetForceQuiesceAfter(std::chrono::nanoseconds d) {
    force_quiesce_after_ns_.store(d.count(), std::memory_order_relaxed);
  }
  std::chrono::nanoseconds ForceQuiesceAfter() const {
    return std::chrono::nanoseconds(
        force_quiesce_after_ns_.load(std::memory_order_relaxed));
  }
  // Quanta force-quiesced by barriers on this domain (tests / introspection).
  uint64_t ForcedQuiesces() const {
    return forced_quiesces_.load(std::memory_order_relaxed);
  }

  // Default watchdog threshold, derived from the core count at first use (the 250 ms
  // constant was guessed on a one-core container — ROADMAP PR-5 carryover). Rationale:
  // on a one-core host an idle open quantum usually means its owner is merely
  // descheduled, so evicting early just churns sections that would have refreshed
  // themselves; with real parallelism a stuck quantum blocks reclamation for every
  // other core at once and barriers complete quickly, so eviction should come sooner.
  // 250 ms / cores, floored at 50 ms; CpuCount() == 1 reproduces the old 250 ms
  // exactly. epoch_test asserts this derivation.
  static std::chrono::nanoseconds DefaultForceQuiesceAfter() {
    static const std::chrono::nanoseconds v =
        std::max(std::chrono::nanoseconds(std::chrono::milliseconds(50)),
                 std::chrono::nanoseconds(std::chrono::milliseconds(250)) / CpuCount());
    return v;
  }

  // Number of records currently registered (for tests / introspection).
  std::size_t LiveThreads() const;

 private:
  // How long a posted revocation notice must sit unacknowledged, with the heartbeat
  // provably still, before the barrier may close the section itself.
  static constexpr std::chrono::nanoseconds kRevokeConfirmWindow =
      std::chrono::milliseconds(2);

  ThreadRec recs_[kMaxThreads];
  std::atomic<std::size_t> high_water_{0};  // one past the highest slot ever used
  std::atomic<int64_t> force_quiesce_after_ns_{DefaultForceQuiesceAfter().count()};
  std::atomic<uint64_t> forced_quiesces_{0};
};

// RAII helper binding the current thread to a domain record for the lifetime of the
// thread. The first call on a thread claims a slot; the slot is released when the thread
// terminates.
EpochDomain::ThreadRec* CurrentThreadRec(EpochDomain& domain);

// RAII critical-section guard.
class EpochGuard {
 public:
  explicit EpochGuard(EpochDomain& domain) : rec_(CurrentThreadRec(domain)) {
    EpochDomain::Enter(rec_);
  }
  ~EpochGuard() { EpochDomain::Exit(rec_); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain::ThreadRec* rec_;
};

// Epoch-per-quantum guard — the amortized form of EpochGuard for operations hot enough
// that two RMWs per operation show up (the speculative page-fault path: the list-scoped
// vs list-full single-core faults/sec gap was exactly this cost).
//
// The first guard on a thread opens a critical section ("quantum") that then *stays
// open across guards*: the next kOpsPerQuantum - 1 guards are a plain-integer
// increment, no atomics at all. The guard that completes the quantum closes the
// section (and the one after opens a fresh one), so the epoch provably moves every
// kOpsPerQuantum operations and a concurrent Barrier() waits at most one quantum of
// the slowest active thread. A quantum left open by a thread that stops issuing guards
// is closed when the thread exits (ReleaseRec) or by an explicit
// EpochQuantumQuiesce(); a live thread that goes idle *between* those points delays —
// never breaks — reclamation, the standard quiescent-state-based tradeoff.
//
// Safety is the conservative direction: the barrier may wait for sections that no
// longer reference anything, never the reverse. References obtained under a guard must
// still not outlive that guard (they are only *protected* for the guard's scope; the
// longer-lived section merely keeps the protection cheap).
//
// Constraints: guards of the same domain must not nest on one thread (the inner
// guard's quantum completion would strip protection from the outer); plain EpochGuards
// nest freely inside (the quantum owns one depth unit, so they never toggle the
// epoch).
class EpochQuantumGuard {
 public:
  // Refresh period. Large enough that the two quantum-boundary RMWs vanish into the
  // noise, small enough that an active faulting thread stalls a barrier for microseconds
  // only.
  static constexpr uint32_t kOpsPerQuantum = 64;

  explicit EpochQuantumGuard(EpochDomain& domain) : rec_(CurrentThreadRec(domain)) {
    // Heartbeat first (odd = inside a guard's scope): the barrier watchdog only evicts
    // sections whose heartbeat is even and still, so announcing before the reuse
    // checks below shrinks its decision window from the wrong side.
    rec_->quantum_ticks.store(rec_->quantum_ticks.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
    if (!rec_->quantum_open.load(std::memory_order_relaxed)) {
      EpochDomain::Enter(rec_);
      rec_->quantum_open.store(true, std::memory_order_relaxed);
      return;
    }
    const uint64_t e = rec_->epoch.load(std::memory_order_relaxed);
    if ((e & 1) == 0) {
      // The barrier watchdog force-quiesced our idle quantum. Reopen a fresh section
      // under the same depth unit before any reference is taken. Plain fetch_add is
      // safe: the watchdog never touches an even epoch.
      rec_->quantum_revoked.store(false, std::memory_order_relaxed);
      rec_->quantum_ops = 0;
      rec_->epoch.fetch_add(1, std::memory_order_seq_cst);
    } else if (rec_->quantum_revoked.load(std::memory_order_relaxed)) {
      // A barrier posted an eviction notice while we idled: acknowledge by refreshing
      // the section in place (odd -> odd), which releases the barrier without ever
      // dropping protection. CAS, because the watchdog may close the section in the
      // same instant; if it wins, reopen.
      rec_->quantum_revoked.store(false, std::memory_order_relaxed);
      rec_->quantum_ops = 0;
      uint64_t expect = e;
      if (!rec_->epoch.compare_exchange_strong(expect, e + 2,
                                               std::memory_order_seq_cst)) {
        rec_->epoch.fetch_add(1, std::memory_order_seq_cst);  // expect reloaded even
      }
    }
  }
  ~EpochQuantumGuard() {
    rec_->quantum_ticks.store(rec_->quantum_ticks.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
    if (++rec_->quantum_ops >= kOpsPerQuantum) {
      rec_->quantum_ops = 0;
      rec_->quantum_open.store(false, std::memory_order_relaxed);
      EpochDomain::Exit(rec_);
    }
  }
  EpochQuantumGuard(const EpochQuantumGuard&) = delete;
  EpochQuantumGuard& operator=(const EpochQuantumGuard&) = delete;

 private:
  EpochDomain::ThreadRec* rec_;
};

// Closes the calling thread's open quantum in `domain`, if any. Call when a thread
// leaves a fault-heavy phase but stays alive (e.g. a worker that switches to waiting on
// a queue), so concurrent barriers stop waiting on its idle critical section.
void EpochQuantumQuiesce(EpochDomain& domain);
inline void EpochQuantumQuiesce() { EpochQuantumQuiesce(EpochDomain::Global()); }

}  // namespace srl

#endif  // SRL_EPOCH_EPOCH_DOMAIN_H_
