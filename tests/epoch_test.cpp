// Tests for epoch-based reclamation: domain, barrier, node pools, retire lists (§4.4).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/lnode.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/epoch/retire_list.h"
#include "src/skiplist/optimistic_skiplist.h"
#include "src/skiplist/range_lock_skiplist.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::EventuallyTrue;
using testing::StaysFalse;

TEST(EpochDomainTest, EnterExitTogglesParity) {
  EpochDomain domain;
  EpochDomain::ThreadRec* rec = domain.AcquireRec();
  EXPECT_EQ(rec->epoch.load() & 1, 0u);
  EpochDomain::Enter(rec);
  EXPECT_EQ(rec->epoch.load() & 1, 1u);
  EpochDomain::Exit(rec);
  EXPECT_EQ(rec->epoch.load() & 1, 0u);
  domain.ReleaseRec(rec);
}

TEST(EpochDomainTest, BarrierNoCriticalSectionsReturnsImmediately) {
  EpochDomain domain;
  EpochDomain::ThreadRec* rec = domain.AcquireRec();
  domain.Barrier(rec);  // must not block
  domain.ReleaseRec(rec);
  SUCCEED();
}

TEST(EpochDomainTest, BarrierWaitsForCriticalSection) {
  EpochDomain domain;
  std::atomic<bool> in_cs{false};
  std::atomic<bool> release_cs{false};
  std::atomic<bool> barrier_done{false};

  std::thread cs_thread([&] {
    EpochDomain::ThreadRec* rec = domain.AcquireRec();
    EpochDomain::Enter(rec);
    in_cs.store(true);
    while (!release_cs.load()) {
      std::this_thread::yield();
    }
    EpochDomain::Exit(rec);
    domain.ReleaseRec(rec);
  });

  while (!in_cs.load()) {
    std::this_thread::yield();
  }
  std::thread barrier_thread([&] {
    domain.Barrier();
    barrier_done.store(true);
  });
  EXPECT_TRUE(StaysFalse([&] { return barrier_done.load(); }))
      << "barrier returned while a critical section was live";
  release_cs.store(true);
  barrier_thread.join();
  cs_thread.join();
  EXPECT_TRUE(barrier_done.load());
}

TEST(EpochDomainTest, BarrierIgnoresSelf) {
  EpochDomain domain;
  EpochDomain::ThreadRec* rec = domain.AcquireRec();
  EpochDomain::Enter(rec);
  domain.Barrier(rec);  // must not deadlock on our own critical section
  EpochDomain::Exit(rec);
  domain.ReleaseRec(rec);
  SUCCEED();
}

TEST(EpochDomainTest, ThreadRecsAreDistinctAndReleased) {
  EpochDomain domain;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> registered{0};
  std::atomic<bool> go{false};
  std::vector<EpochDomain::ThreadRec*> recs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      recs[t] = domain.AcquireRec();
      registered.fetch_add(1);
      while (!go.load()) {
        std::this_thread::yield();
      }
      domain.ReleaseRec(recs[t]);
    });
  }
  while (registered.load() < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(domain.LiveThreads(), static_cast<std::size_t>(kThreads));
  go.store(true);
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(domain.LiveThreads(), 0u);
  // All recs distinct.
  for (int i = 0; i < kThreads; ++i) {
    for (int j = i + 1; j < kThreads; ++j) {
      EXPECT_NE(recs[i], recs[j]);
    }
  }
}

TEST(EpochDomainTest, CurrentThreadRecIsStablePerThread) {
  EpochDomain::ThreadRec* a = CurrentThreadRec(EpochDomain::Global());
  EpochDomain::ThreadRec* b = CurrentThreadRec(EpochDomain::Global());
  EXPECT_EQ(a, b);
  EpochDomain::ThreadRec* other = nullptr;
  std::thread th([&] { other = CurrentThreadRec(EpochDomain::Global()); });
  th.join();
  EXPECT_NE(a, other);
}

// Regression: a same-key insert used to spin on a winner's fully_linked bit for as
// long as the winner stayed preempted — inside its own epoch critical section,
// pinning its epoch odd and stalling reclamation for the whole domain. The bounded
// wait must cycle the section (epoch keeps moving) while the winner is stalled. Both
// skip lists share that wait (lazy_skiplist.h); each is checked.
template <typename List>
void ExpectLinkWaitDoesNotPinEpoch() {
  List list;
  std::atomic<bool> gate{false};
  list.TestOnlySetLinkGate(&gate);

  // The winner links its node, then stalls at the gate before publishing
  // fully_linked — still holding its exclusion and its epoch section.
  std::thread winner([&] { EXPECT_TRUE(list.Insert(42)); });
  ASSERT_TRUE(EventuallyTrue([&] { return list.DebugCount() == 1; }))
      << "winner never linked its node";

  std::atomic<EpochDomain::ThreadRec*> loser_rec{nullptr};
  std::thread loser([&] {
    loser_rec.store(CurrentThreadRec(EpochDomain::Global()), std::memory_order_release);
    EXPECT_FALSE(list.Insert(42)) << "duplicate insert must fail once the winner links";
  });
  EpochDomain::ThreadRec* rec = nullptr;
  while ((rec = loser_rec.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  // Let the loser settle into its wait, then demand its epoch keep advancing. An
  // unbounded in-section spin parks the epoch at one odd value for the duration of
  // the winner's stall.
  std::this_thread::sleep_for(20ms);
  const uint64_t e0 = rec->epoch.load(std::memory_order_acquire);
  EXPECT_TRUE(EventuallyTrue(
      [&] { return rec->epoch.load(std::memory_order_acquire) != e0; }))
      << "same-key inserter pinned its epoch while waiting on fully_linked";

  gate.store(true, std::memory_order_release);
  winner.join();
  loser.join();
  list.TestOnlySetLinkGate(nullptr);
  EXPECT_TRUE(list.Contains(42));
}

TEST(EpochDomainTest, SkiplistLinkWaitDoesNotPinEpoch) {
  ExpectLinkWaitDoesNotPinEpoch<RangeLockSkipList<ListLockPolicy>>();
}

TEST(EpochDomainTest, OrigSkiplistLinkWaitDoesNotPinEpoch) {
  ExpectLinkWaitDoesNotPinEpoch<OptimisticSkipList>();
}

// --- Epoch-per-quantum (EpochQuantumGuard) ---

// The amortization contract: the first guard opens a critical section that persists
// across guards (no epoch movement, hence no RMWs, for the next kOpsPerQuantum - 1
// operations), and the guard completing the quantum closes it — the epoch provably
// moves every kOpsPerQuantum operations.
TEST(EpochQuantumTest, QuantumSpansOpsAndRefreshesOnSchedule) {
  EpochDomain domain;
  std::thread worker([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(domain);
    const uint64_t e0 = rec->epoch.load();
    EXPECT_EQ(e0 & 1, 0u);
    { EpochQuantumGuard g(domain); }
    const uint64_t open = rec->epoch.load();
    EXPECT_EQ(open, e0 + 1) << "first guard must open a critical section";
    for (uint32_t i = 1; i < EpochQuantumGuard::kOpsPerQuantum - 1; ++i) {
      EpochQuantumGuard g(domain);
      EXPECT_EQ(rec->epoch.load(), open) << "guard " << i << " moved the epoch "
                                            "inside the quantum";
    }
    { EpochQuantumGuard g(domain); }  // op kOpsPerQuantum: completes the quantum
    EXPECT_EQ(rec->epoch.load(), open + 1) << "quantum completion must close the "
                                              "critical section (even epoch)";
    { EpochQuantumGuard g(domain); }  // next op opens a fresh quantum
    EXPECT_EQ(rec->epoch.load(), open + 2);
    EpochQuantumQuiesce(domain);
  });
  worker.join();
}

// Reclamation safety and liveness in one scenario: retired memory must never be freed
// while any quantum is open (the barrier waits), and a thread that keeps operating
// must not stall reclamation past its forced refresh (the barrier completes once the
// quantum boundary passes — no explicit quiesce involved).
TEST(EpochQuantumTest, OpenQuantumBlocksBarrierUntilForcedRefresh) {
  EpochDomain domain;
  std::atomic<bool> quantum_open{false};
  std::atomic<bool> finish_ops{false};
  std::atomic<bool> barrier_done{false};

  std::thread holder([&] {
    { EpochQuantumGuard g(domain); }  // op 1 of the quantum: section now persists
    quantum_open.store(true);
    while (!finish_ops.load()) {
      std::this_thread::yield();
    }
    // The remaining ops of the quantum; the one completing it closes the section.
    for (uint32_t i = 1; i < EpochQuantumGuard::kOpsPerQuantum; ++i) {
      EpochQuantumGuard g(domain);
    }
    // Park with the *next* quantum closed so the test ends deterministically.
    EpochQuantumQuiesce(domain);
  });

  while (!quantum_open.load()) {
    std::this_thread::yield();
  }
  std::thread barrier([&] {
    domain.Barrier();
    barrier_done.store(true);
  });
  EXPECT_TRUE(StaysFalse([&] { return barrier_done.load(); }))
      << "barrier returned while a quantum (idle between guards) was still open — "
         "retired memory could be freed under a live speculative reader";
  finish_ops.store(true);
  barrier.join();  // must complete: the forced refresh closed the quantum
  EXPECT_TRUE(barrier_done.load());
  holder.join();
}

// A thread that exits with its quantum open must not strand concurrent barriers:
// releasing the thread record closes the quantum.
TEST(EpochQuantumTest, ThreadExitClosesOpenQuantum) {
  EpochDomain domain;
  std::thread worker([&] {
    EpochQuantumGuard g(domain);
    // Exits with the quantum open (no quiesce): ReleaseRec must clean up.
  });
  worker.join();
  domain.Barrier();  // must not hang
  SUCCEED();
}

// Explicit quiesce for live threads leaving a fault-heavy phase.
TEST(EpochQuantumTest, QuiesceClosesQuantumAndIsIdempotent) {
  EpochDomain domain;
  std::thread worker([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(domain);
    { EpochQuantumGuard g(domain); }
    EXPECT_EQ(rec->epoch.load() & 1, 1u);
    EpochQuantumQuiesce(domain);
    EXPECT_EQ(rec->epoch.load() & 1, 0u);
    EpochQuantumQuiesce(domain);  // no open quantum: must be a no-op
    EXPECT_EQ(rec->epoch.load() & 1, 0u);
    EpochQuantumQuiesce(domain);
  });
  worker.join();
  domain.Barrier();
  SUCCEED();
}

// Scoped guards nest inside an open quantum without toggling the epoch (the quantum
// owns the outermost depth unit), and the quantum's completion respects nesting.
TEST(EpochQuantumTest, ScopedGuardsNestInsideQuantum) {
  EpochDomain domain;
  std::thread worker([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(domain);
    { EpochQuantumGuard g(domain); }
    const uint64_t open = rec->epoch.load();
    {
      EpochGuard nested(domain);
      EXPECT_EQ(rec->epoch.load(), open) << "nested scoped guard re-toggled the epoch";
    }
    EXPECT_EQ(rec->epoch.load(), open) << "nested scoped guard closed the quantum";
    EpochQuantumQuiesce(domain);
    EXPECT_EQ(rec->epoch.load(), open + 1);
  });
  worker.join();
}

// The two-flushing-threads scenario behind the quiesce-before-barrier rule: a
// RetireList::Flush from a thread with an open quantum must both complete (no mutual
// deadlock with other barriering threads) and still free its batch.
TEST(EpochQuantumTest, FlushWithOwnQuantumOpenCompletesAndFrees) {
  std::atomic<bool> ok{true};
  std::thread worker([&] {
    // Open a quantum in the global domain (RetireList is bound to it), then flush.
    { EpochQuantumGuard g(EpochDomain::Global()); }
    RetireList list;
    list.Retire(new int(42));
    list.Flush();  // must quiesce our quantum, run the barrier, and free
    if (list.PendingCount() != 0) {
      ok.store(false);
    }
    EpochQuantumQuiesce();
  });
  worker.join();
  EXPECT_TRUE(ok.load());
}

// --- Barrier watchdog (force-quiesce of idle quanta) ---

// One thread parked between guards with its quantum open must not pin a barrier (and
// therefore retired memory) forever: past the force-quiesce threshold the barrier
// evicts the idle section, and the owner's next guard re-establishes protection
// before taking any reference.
TEST(EpochQuantumTest, WatchdogForceQuiescesParkedQuantum) {
  EpochDomain domain;
  domain.SetForceQuiesceAfter(5ms);
  std::atomic<bool> parked{false};
  std::atomic<bool> resume{false};
  std::atomic<bool> reopened_protected{false};

  std::thread holder([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(domain);
    { EpochQuantumGuard g(domain); }  // quantum left open, thread goes idle
    parked.store(true);
    while (!resume.load()) {
      std::this_thread::yield();
    }
    {
      // The next guard must notice the revoked/closed section and reopen it before
      // any reference could be taken.
      EpochQuantumGuard g(domain);
      reopened_protected.store((rec->epoch.load() & 1) == 1);
    }
    EpochQuantumQuiesce(domain);
  });

  while (!parked.load()) {
    std::this_thread::yield();
  }
  domain.Barrier();  // must complete despite the parked open quantum
  EXPECT_GE(domain.ForcedQuiesces(), 1u)
      << "barrier completed without evicting the idle quantum — who closed it?";
  resume.store(true);
  holder.join();
  EXPECT_TRUE(reopened_protected.load())
      << "guard after revocation ran with an even epoch: references unprotected";
  domain.Barrier();  // domain must be fully consistent afterwards
}

// A thread that exits after its idle quantum was force-quiesced must leave the domain
// clean: ReleaseRec must not re-toggle the already-closed section into a permanently
// odd epoch (which would hang every later barrier).
TEST(EpochQuantumTest, WatchdogThenThreadExitKeepsDomainClean) {
  EpochDomain domain;
  domain.SetForceQuiesceAfter(5ms);
  std::atomic<bool> parked{false};
  std::atomic<bool> resume{false};
  std::thread holder([&] {
    { EpochQuantumGuard g(domain); }
    parked.store(true);
    while (!resume.load()) {
      std::this_thread::yield();
    }
    // Exit with quantum state still marked open but the section already evicted.
  });
  while (!parked.load()) {
    std::this_thread::yield();
  }
  domain.Barrier();
  EXPECT_GE(domain.ForcedQuiesces(), 1u);
  resume.store(true);
  holder.join();
  EXPECT_EQ(domain.LiveThreads(), 0u);
  domain.Barrier();  // must not hang on the released slot
  SUCCEED();
}

// The watchdog must never evict a section that may hold references: a thread parked
// *inside* a nested plain guard (depth 2: the quantum's unit plus the guard's) keeps
// the barrier blocked no matter how stale its heartbeat looks.
TEST(EpochQuantumTest, WatchdogSparesNestedGuard) {
  EpochDomain domain;
  domain.SetForceQuiesceAfter(5ms);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<bool> barrier_done{false};

  std::thread holder([&] {
    { EpochQuantumGuard g(domain); }  // quantum open
    EpochGuard nested(domain);        // plain guard: may legitimately hold references
    parked.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!parked.load()) {
    std::this_thread::yield();
  }
  std::thread barrier([&] {
    domain.Barrier();
    barrier_done.store(true);
  });
  EXPECT_TRUE(StaysFalse([&] { return barrier_done.load(); }))
      << "watchdog evicted a section nested under a live plain guard";
  EXPECT_EQ(domain.ForcedQuiesces(), 0u);
  release.store(true);
  barrier.join();
  holder.join();
  // The quantum the nested guard rode on is still open and idle; a later barrier may
  // legitimately evict it.
  domain.Barrier();
}

// An actively faulting thread (heartbeat moving) is never force-quiesced — its quantum
// refreshes on schedule and the barrier completes the ordinary way.
TEST(EpochQuantumTest, WatchdogSparesActiveQuantum) {
  EpochDomain domain;
  // Generous threshold: an actively guarding worker refreshes its quantum every
  // kOpsPerQuantum guards, so each barrier completes in microseconds regardless — the
  // threshold only has to beat scheduler freezes (TSan on a loaded runner can park a
  // thread for hundreds of milliseconds, which must not read as "idle").
  domain.SetForceQuiesceAfter(5s);
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EpochQuantumGuard g(domain);
      started.store(true, std::memory_order_relaxed);
    }
    EpochQuantumQuiesce(domain);
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 10; ++i) {
    domain.Barrier();
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(domain.ForcedQuiesces(), 0u)
      << "watchdog evicted a quantum whose owner was actively issuing guards";
}

TEST(NodePoolTest, AllocatesPreallocatedNodes) {
  NodePool<LNode> pool;
  EXPECT_EQ(pool.ActiveSize(), NodePool<LNode>::kTargetSize);
  LNode* n = pool.Alloc();
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(pool.ActiveSize(), NodePool<LNode>::kTargetSize - 1);
  pool.Recycle(n);
  EXPECT_EQ(pool.ActiveSize(), NodePool<LNode>::kTargetSize);
}

TEST(NodePoolTest, RetiredNodesBecomeAllocatableAfterRefill) {
  NodePool<LNode> pool;
  std::vector<LNode*> nodes;
  // Drain the whole active pool, retiring everything.
  for (std::size_t i = 0; i < NodePool<LNode>::kTargetSize; ++i) {
    nodes.push_back(pool.Alloc());
  }
  EXPECT_EQ(pool.ActiveSize(), 0u);
  for (LNode* n : nodes) {
    pool.Retire(n);
  }
  EXPECT_EQ(pool.ReclaimedSize(), NodePool<LNode>::kTargetSize);
  // Next Alloc triggers the barrier + pool swap; the retired nodes come back.
  LNode* n = pool.Alloc();
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(pool.ReclaimedSize(), 0u);
  EXPECT_EQ(pool.ActiveSize(), NodePool<LNode>::kTargetSize - 1);
  pool.Recycle(n);
}

TEST(NodePoolTest, RefillReplenishesWhenBelowHalfTarget) {
  NodePool<LNode> pool;
  // Drain without retiring: refill finds an empty reclaimed pool and must allocate new
  // nodes up to the target (the paper's "replenish to N if below N/2" rule).
  std::vector<LNode*> held;
  for (std::size_t i = 0; i < NodePool<LNode>::kTargetSize; ++i) {
    held.push_back(pool.Alloc());
  }
  LNode* extra = pool.Alloc();  // forces refill from empty reclaimed pool
  ASSERT_NE(extra, nullptr);
  EXPECT_GE(pool.ActiveSize(), NodePool<LNode>::kTargetSize - 1);
  pool.Recycle(extra);
  for (LNode* n : held) {
    pool.Recycle(n);
  }
}

TEST(NodePoolTest, RefillTrimsOversizedPool) {
  NodePool<LNode> pool;
  // Retire far more nodes than the target: after the swap the pool must be trimmed back
  // to the target (the paper's "trim to N if above 2N" rule).
  constexpr std::size_t kExtra = NodePool<LNode>::kTargetSize * 3;
  for (std::size_t i = 0; i < kExtra; ++i) {
    pool.Retire(new LNode());
  }
  // Drain active to force the swap.
  std::vector<LNode*> held;
  for (std::size_t i = 0; i < NodePool<LNode>::kTargetSize; ++i) {
    held.push_back(pool.Alloc());
  }
  LNode* n = pool.Alloc();  // triggers refill: swap to the 3N reclaimed pool, trim to N
  ASSERT_NE(n, nullptr);
  EXPECT_LE(pool.ActiveSize(), NodePool<LNode>::kTargetSize);
  pool.Recycle(n);
  for (LNode* h : held) {
    pool.Recycle(h);
  }
}

// The inventory ratchet must give back what a storm taught it once the storm is over:
// parks (shortages) raise the learned floor; a long quiet phase decays it one batch
// per reap cycle back to the paper's fixed target, so the storm's inventory does not
// stay resident forever.
TEST(NodePoolTest, InventoryRatchetDecaysWhenQuiescent) {
  constexpr std::size_t kTarget = NodePool<LNode>::kTargetSize;
  NodePool<LNode> pool;
  EXPECT_EQ(pool.InventoryTarget(), kTarget);

  // Storm phase: with a reader parked in a critical section, every refill that finds
  // the active pool dry must park its reclaimed batch (grace cannot elapse) and
  // ratchet the floor up one batch.
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release_reader{false};
  std::thread reader([&] {
    EpochGuard g(EpochDomain::Global());
    reader_in.store(true);
    while (!release_reader.load()) {
      std::this_thread::yield();
    }
  });
  while (!reader_in.load()) {
    std::this_thread::yield();
  }
  constexpr int kStormCycles = 3;
  for (int c = 0; c < kStormCycles; ++c) {
    std::vector<LNode*> held;
    while (pool.ActiveSize() > 0) {
      held.push_back(pool.Alloc());
    }
    for (LNode* n : held) {
      pool.Retire(n);
    }
    LNode* extra = pool.Alloc();  // refill: parks the reclaimed batch, ratchets
    ASSERT_NE(extra, nullptr);
    pool.Recycle(extra);
  }
  EXPECT_EQ(pool.InventoryTarget(), kTarget * (1 + kStormCycles));
  EXPECT_GT(pool.ParkedBatches(), 0u);
  release_reader.store(true);
  reader.join();

  // Quiet phase: every further refill reaps cleanly and parks nothing; after the
  // run-up the floor must decay one batch per cycle, all the way back to the paper's
  // target — and the trim rule then prunes the stranded inventory.
  for (int c = 0; c < 64 && pool.InventoryTarget() > kTarget; ++c) {
    std::vector<LNode*> held;
    while (pool.ActiveSize() > 0) {
      held.push_back(pool.Alloc());
    }
    LNode* extra = pool.Alloc();  // refill: reap, no shortage -> quiet cycle
    ASSERT_NE(extra, nullptr);
    pool.Recycle(extra);
    for (LNode* n : held) {
      pool.Recycle(n);
    }
  }
  EXPECT_EQ(pool.InventoryTarget(), kTarget)
      << "learned floor never decayed back to the fixed target";
  EXPECT_EQ(pool.ParkedBatches(), 0u);
}

struct CountedObj {
  static std::atomic<int> live;
  CountedObj() { live.fetch_add(1); }
  ~CountedObj() { live.fetch_sub(1); }
};
std::atomic<int> CountedObj::live{0};

TEST(RetireListTest, FlushFreesEverything) {
  {
    RetireList list;
    for (int i = 0; i < 10; ++i) {
      list.Retire(new CountedObj());
    }
    EXPECT_EQ(CountedObj::live.load(), 10);
    EXPECT_EQ(list.PendingCount(), 10u);
    list.Flush();
    EXPECT_EQ(CountedObj::live.load(), 0);
    EXPECT_EQ(list.PendingCount(), 0u);
  }
}

TEST(RetireListTest, DestructorFlushes) {
  {
    RetireList list;
    list.Retire(new CountedObj());
    EXPECT_EQ(CountedObj::live.load(), 1);
  }
  EXPECT_EQ(CountedObj::live.load(), 0);
}

TEST(RetireListTest, MaybeFlushHonoursThreshold) {
  RetireList list;
  for (std::size_t i = 0; i < RetireList::FlushThreshold() - 1; ++i) {
    list.Retire(new CountedObj());
  }
  list.MaybeFlush();
  EXPECT_EQ(list.PendingCount(), RetireList::FlushThreshold() - 1) << "flushed too early";
  list.Retire(new CountedObj());
  list.MaybeFlush();
  EXPECT_EQ(list.PendingCount(), 0u);
  EXPECT_EQ(CountedObj::live.load(), 0);
}

// One thread idles with its quantum open, so no grace ticket can elapse until a
// Barrier's watchdog (5 ms here) evicts the idle quantum.
class StalledQuantum {
 public:
  StalledQuantum() {
    EpochDomain::Global().SetForceQuiesceAfter(5ms);
    holder_ = std::thread([this] {
      { EpochQuantumGuard g(EpochDomain::Global()); }  // quantum left open, thread idles
      parked_.store(true);
      while (!resume_.load()) {
        std::this_thread::yield();
      }
      EpochQuantumQuiesce();
    });
    while (!parked_.load()) {
      std::this_thread::yield();
    }
  }
  ~StalledQuantum() {
    resume_.store(true);
    holder_.join();
    EpochDomain::Global().SetForceQuiesceAfter(EpochDomain::DefaultForceQuiesceAfter());
  }

 private:
  std::atomic<bool> parked_{false};
  std::atomic<bool> resume_{false};
  std::thread holder_;
};

// A list's backlog bound: MaybeFlush stops parking at MaxParkedBatches() and waits the
// section out, so at most MaxParkedBatches() + 1 flush thresholds stay pending.
std::size_t BacklogBound() {
  return (RetireList::MaxParkedBatches() + 1) * RetireList::FlushThreshold();
}

// Retires four times the backlog bound into `list`, flushing after each retire, and
// returns the peak backlog.
std::size_t PeakBacklogOfFourBounds(RetireList& list) {
  std::size_t peak = 0;
  for (std::size_t i = 0; i < 4 * BacklogBound(); ++i) {
    list.Retire(new CountedObj());
    list.MaybeFlush();
    peak = std::max(peak, list.PendingCount());
  }
  return peak;
}

// A stalled section must not grow a stripe's retire backlog with the unmap rate: a
// list owned by a structure, as a VmaStripe's is, stays within the bound.
TEST(SharedRetireListTest, StalledSectionCannotGrowTheBacklogPastTheBound) {
  std::size_t peak = 0;
  {
    StalledQuantum stall;
    RetireList list;
    peak = PeakBacklogOfFourBounds(list);
  }
  EXPECT_LE(peak, BacklogBound()) << "the backlog grew while a section stalled";
  EXPECT_EQ(CountedObj::live.load(), 0);
}

// The same bound holds for a thread's own list (RetireList::Local(), the skip lists'):
// it must wait the section out rather than park or coalesce batches past the cap.
TEST(RetireListTest, StalledSectionCannotGrowTheLocalBacklog) {
  std::size_t peak = 0;
  {
    StalledQuantum stall;
    // A fresh thread, so its Local() list starts empty and is flushed at thread exit.
    std::thread worker([&peak] { peak = PeakBacklogOfFourBounds(RetireList::Local()); });
    worker.join();
  }
  EXPECT_LE(peak, BacklogBound())
      << "the thread-local backlog grew while a section stalled";
  EXPECT_EQ(CountedObj::live.load(), 0);
}

// The reclamation constants are derived from the machine's core count at first use
// (the original constexpr values were guessed on a one-core container). Assert the
// exact derivations so a refactor cannot silently change the policy, and that one
// core reproduces the historical constants (256 / 8 / 250ms) bit-for-bit.
TEST(ReclamationDerivationTest, ConstantsFollowCoreCount) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(RetireList::FlushThreshold(), std::clamp<std::size_t>(1024 / hw, 64, 256));
  EXPECT_EQ(RetireList::MaxParkedBatches(), 8u);  // a memory bound, not derived
  EXPECT_EQ((NodePool<LNode>::DecayQuietRefills()), std::max<std::size_t>(8, hw));
  const std::chrono::nanoseconds quiesce = EpochDomain::DefaultForceQuiesceAfter();
  EXPECT_EQ(quiesce, std::max(std::chrono::nanoseconds(std::chrono::milliseconds(50)),
                              std::chrono::nanoseconds(std::chrono::milliseconds(250)) /
                                  static_cast<unsigned>(hw)));
  if (hw == 1) {
    EXPECT_EQ(RetireList::FlushThreshold(), 256u);
    EXPECT_EQ((NodePool<LNode>::DecayQuietRefills()), 8u);
    EXPECT_EQ(quiesce, std::chrono::nanoseconds(std::chrono::milliseconds(250)));
  }
}

// Cross-thread grace period: a reader in a critical section must keep retired memory
// alive until it exits.
TEST(RetireListTest, GracePeriodProtectsReaders) {
  struct Payload {
    std::atomic<uint64_t> value{0xabcdabcdabcdabcdull};
    ~Payload() { value.store(0xdeaddeaddeaddeadull); }
  };
  auto* shared = new Payload();
  std::atomic<Payload*> slot{shared};
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_ok{true};
  std::atomic<bool> retired{false};

  std::thread reader([&] {
    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    EpochDomain::Enter(rec);
    Payload* p = slot.load();
    reader_in.store(true);
    // Hold the reference across the writer's retire; the value must stay intact.
    while (!retired.load()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 1000; ++i) {
      if (p->value.load() != 0xabcdabcdabcdabcdull) {
        reader_ok.store(false);
        break;
      }
    }
    EpochDomain::Exit(rec);
  });

  while (!reader_in.load()) {
    std::this_thread::yield();
  }
  slot.store(nullptr);  // unlink
  RetireList list;
  list.Retire(shared);
  retired.store(true);
  list.Flush();  // barrier: must wait for the reader's critical section
  reader.join();
  EXPECT_TRUE(reader_ok.load());
  EXPECT_EQ(CountedObj::live.load(), 0);
}

}  // namespace
}  // namespace srl
