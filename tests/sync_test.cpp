// Tests for the sync substrate: spin locks, reader-writer locks, semaphore, counters.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sync/backoff.h"
#include "src/sync/fair_rw_lock.h"
#include "src/sync/rw_semaphore.h"
#include "src/sync/rw_spin_lock.h"
#include "src/sync/seq_counter.h"
#include "src/sync/spin_lock.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;

constexpr int kThreads = 4;
constexpr int kItersPerThread = 20000;

// Drives any Lockable through a racy counter increment; a correct mutex makes the
// non-atomic counter end up exact.
template <typename LockT>
void MutexCounterTest(LockT& lock) {
  int64_t counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        lock.lock();
        counter += 1;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, int64_t{kThreads} * kItersPerThread);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  MutexCounterTest(lock);
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// Readers must be able to hold the lock simultaneously.
template <typename RwLockT>
void ReadersShareTest(RwLockT& lock) {
  std::atomic<int> readers_inside{0};
  std::atomic<bool> saw_two{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      lock.lock_shared();
      readers_inside.fetch_add(1);
      // Wait (bounded) for the other reader to arrive while we hold the lock.
      for (int i = 0; i < 10000000; ++i) {
        if (readers_inside.load() == 2) {
          saw_two.store(true);
          break;
        }
        if (saw_two.load()) {
          break;
        }
        std::this_thread::yield();
      }
      readers_inside.fetch_sub(1);
      lock.unlock_shared();
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(saw_two.load());
}

// Writer sections must be exclusive against both readers and writers.
template <typename RwLockT>
void RwCounterTest(RwLockT& lock) {
  int64_t counter = 0;
  std::atomic<bool> reader_saw_torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        for (int i = 0; i < kItersPerThread; ++i) {
          lock.lock();
          counter += 1;
          lock.unlock();
        }
      } else {
        for (int i = 0; i < kItersPerThread; ++i) {
          lock.lock_shared();
          // With the lock held for read, two successive reads must agree.
          const int64_t a = counter;
          const int64_t b = counter;
          if (a != b) {
            reader_saw_torn.store(true);
          }
          lock.unlock_shared();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, int64_t{kThreads / 2} * kItersPerThread);
  EXPECT_FALSE(reader_saw_torn.load());
}

TEST(RwSpinLockTest, ReadersShare) {
  RwSpinLock lock;
  ReadersShareTest(lock);
}

TEST(RwSpinLockTest, WriterExclusion) {
  RwSpinLock lock;
  RwCounterTest(lock);
}

TEST(RwSpinLockTest, TryLockVariants) {
  RwSpinLock lock;
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock_shared());
  lock.unlock();
}

TEST(FairRwLockTest, ReadersShare) {
  FairRwLock lock;
  ReadersShareTest(lock);
}

TEST(FairRwLockTest, WriterExclusion) {
  FairRwLock lock;
  RwCounterTest(lock);
}

// A writer facing a continuous stream of readers must still get in (phase fairness).
TEST(FairRwLockTest, WriterNotStarvedByReaders) {
  FairRwLock lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        lock.lock_shared();
        std::this_thread::yield();
        lock.unlock_shared();
      }
    });
  }
  std::thread writer([&] {
    lock.lock();
    writer_done.store(true);
    lock.unlock();
  });
  // Generous bound; phase fairness admits the writer after at most one reader phase.
  // (The bound is wall-clock generous because CI hosts may oversubscribe cores.)
  for (int i = 0; i < 20000 && !writer_done.load(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  writer.join();
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_TRUE(writer_done.load());
}

TEST(RwSemaphoreTest, ReadersShare) {
  RwSemaphore sem;
  ReadersShareTest(sem);
}

TEST(RwSemaphoreTest, WriterExclusion) {
  RwSemaphore sem;
  RwCounterTest(sem);
}

// Exercises the blocking path: a writer must sleep past its optimistic spin budget and
// still be woken by the last reader leaving.
TEST(RwSemaphoreTest, BlockedWriterWakesUp) {
  RwSemaphore sem;
  sem.lock_shared();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    sem.lock();
    writer_done.store(true);
    sem.unlock();
  });
  std::this_thread::sleep_for(50ms);  // force the writer well past its spin budget
  EXPECT_FALSE(writer_done.load());
  sem.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(RwSemaphoreTest, BlockedReaderWakesUp) {
  RwSemaphore sem;
  sem.lock();
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    sem.lock_shared();
    reader_done.store(true);
    sem.unlock_shared();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(reader_done.load());
  sem.unlock();
  reader.join();
  EXPECT_TRUE(reader_done.load());
}

TEST(RwSemaphoreTest, TryLockRespectsHolders) {
  RwSemaphore sem;
  sem.lock_shared();
  EXPECT_TRUE(sem.try_lock_shared());  // readers share
  sem.unlock_shared();
  EXPECT_FALSE(sem.try_lock());  // reader blocks writer
  sem.unlock_shared();
  ASSERT_TRUE(sem.try_lock());
  EXPECT_FALSE(sem.try_lock_shared());  // writer blocks reader
  EXPECT_FALSE(sem.try_lock());
  sem.unlock();
}

// A polling timed writer must assert writer preference exactly like a blocking one:
// while it waits, new readers are held off, so an active reader stream cannot starve
// it for its whole timeout.
TEST(RwSemaphoreTest, TimedWriterGetsPreferenceOverNewReaders) {
  RwSemaphore sem;
  sem.lock_shared();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    if (sem.try_lock_for(60s)) {
      writer_done.store(true);
      sem.unlock();
    }
  });
  // Once the timed writer has queued, a fresh reader may no longer enter. (A probe
  // that does get in must let go again, or its count would block the writer forever.)
  EXPECT_TRUE(testing::EventuallyTrue([&] {
    if (sem.try_lock_shared()) {
      sem.unlock_shared();
      return false;
    }
    return true;
  }));
  EXPECT_FALSE(writer_done.load());
  sem.unlock_shared();  // last reader leaves; the timed writer must admit
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(RwSemaphoreTest, TimedAcquisitionsTimeOutAgainstConflicts) {
  RwSemaphore sem;
  sem.lock_shared();
  EXPECT_FALSE(sem.try_lock_for(5ms));  // reader blocks writer
  sem.unlock_shared();
  sem.lock();
  EXPECT_FALSE(sem.try_lock_shared_for(5ms));  // writer blocks reader
  EXPECT_FALSE(sem.try_lock_for(5ms));
  sem.unlock();
  // Failed timed forms hold nothing; the semaphore is fully free afterwards.
  EXPECT_TRUE(sem.try_lock());
  sem.unlock();
}

// --- Seqlock interface conformance (the VM speculation validator's contract) ---

TEST(SeqCounterTest, WriteSectionTogglesParity) {
  SeqCounter seq;
  const uint64_t s0 = seq.ReadBegin();
  EXPECT_EQ(s0 & 1, 0u);
  seq.BeginWrite();
  EXPECT_EQ(seq.Read() & 1, 1u) << "value must be odd while a write is in flight";
  seq.EndWrite();
  EXPECT_EQ(seq.Read() & 1, 0u);
  EXPECT_FALSE(seq.Validate(s0)) << "a completed write section must invalidate "
                                    "snapshots taken before it";
  EXPECT_TRUE(seq.Validate(seq.ReadBegin()));
}

// Per-mutation visibility: every BeginWrite/EndWrite pair — even one that restores the
// protected data bit-for-bit — must be visible to Validate. The VM code depends on
// this: a munmap that unlinks and a racing fault that validated around it must never
// agree on an unchanged counter.
TEST(SeqCounterTest, EveryMutationInvalidatesSnapshots) {
  SeqCounter seq;
  for (int i = 0; i < 8; ++i) {
    const uint64_t snap = seq.ReadBegin();
    seq.BeginWrite();
    seq.EndWrite();
    EXPECT_FALSE(seq.Validate(snap)) << "mutation " << i << " was invisible";
  }
}

// A reader must never validate a snapshot taken across an in-progress write:
// ReadBegin blocks (spins) while the counter is odd, and only returns even values.
TEST(SeqCounterTest, ReadBeginWaitsOutInFlightWrite) {
  SeqCounter seq;
  seq.BeginWrite();
  std::atomic<bool> got_snapshot{false};
  std::atomic<uint64_t> snapshot{~uint64_t{0}};
  std::thread reader([&] {
    snapshot.store(seq.ReadBegin());
    got_snapshot.store(true);
  });
  EXPECT_TRUE(testing::StaysFalse([&] { return got_snapshot.load(); }))
      << "ReadBegin returned inside a write section";
  seq.EndWrite();
  reader.join();
  EXPECT_TRUE(got_snapshot.load());
  EXPECT_EQ(snapshot.load() & 1, 0u);
  EXPECT_TRUE(seq.Validate(snapshot.load()));
}

// A hammering writer against concurrent readers: every validated read section must
// observe a fully consistent multi-word payload, and validation must keep succeeding
// often enough to make progress (the writer pauses between sections, so stable windows
// exist).
TEST(SeqCounterTest, HammeringWriterNeverYieldsTornValidatedReads) {
  SeqCounter seq;
  constexpr int kWords = 4;
  std::atomic<uint64_t> payload[kWords] = {};
  constexpr int kWrites = 40000;
  std::atomic<bool> done{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> validated{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t snap = seq.ReadBegin();
        uint64_t vals[kWords];
        for (int w = 0; w < kWords; ++w) {
          vals[w] = payload[w].load(std::memory_order_relaxed);
        }
        if (!seq.Validate(snap)) {
          continue;  // overlapped a write section: values are unusable, retry
        }
        validated.fetch_add(1, std::memory_order_relaxed);
        for (int w = 1; w < kWords; ++w) {
          if (vals[w] != vals[0]) {
            torn.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (int i = 1; i <= kWrites; ++i) {
    seq.BeginWrite();
    for (int w = 0; w < kWords; ++w) {
      payload[w].store(static_cast<uint64_t>(i), std::memory_order_relaxed);
    }
    seq.EndWrite();
    if (i % 64 == 0) {
      std::this_thread::yield();  // open stable windows for the readers
    }
  }
  EXPECT_TRUE(testing::EventuallyTrue([&] { return validated.load() > 0; }));
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(torn.load()) << "a validated read section observed a torn payload";
  EXPECT_GT(validated.load(), 0u);
}

TEST(BackoffTest, GrowsAndResets) {
  Backoff backoff(2, 16);
  backoff.Spin();  // 2
  backoff.Spin();  // 4
  backoff.Spin();  // 8
  backoff.Reset();
  backoff.Spin();  // back to 2 — just exercising; behaviour is timing-only
  SUCCEED();
}

}  // namespace
}  // namespace srl
