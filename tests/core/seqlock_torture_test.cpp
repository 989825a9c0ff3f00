// Deterministic seqlock torture: writers churn a single shard while
// readers hammer the same keys through the optimistic path. Values
// encode their key, so any torn or stale read is detectable; contention
// counters are asserted to stay within protocol bounds; the
// set_max_optimistic_attempts(0) hook makes the lock fallback
// deterministic for the starvation tests.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_map.hpp"
#include "core/optimistic_read.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/seqlock.hpp"

namespace gh {
namespace {

/// Polls `cond` until it holds (true) or a generous minute passes
/// (false), so a slow or oversubscribed host cannot fail a test whose
/// threads only lag.
template <class Cond>
bool eventually(Cond&& cond) {
  const u64 deadline = now_ns() + 60'000'000'000ull;
  while (!cond()) {
    if (now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(SeqLock, EpochProtocol) {
  SeqLock lock;
  const u64 e0 = lock.read_begin();
  EXPECT_TRUE(SeqLock::epoch_stable(e0));
  EXPECT_TRUE(lock.read_validate(e0));

  lock.write_lock();
  EXPECT_FALSE(SeqLock::epoch_stable(lock.read_begin()));  // odd mid-write
  EXPECT_FALSE(lock.read_validate(e0));
  lock.write_unlock();

  const u64 e1 = lock.read_begin();
  EXPECT_TRUE(SeqLock::epoch_stable(e1));
  EXPECT_EQ(e1, e0 + 2);         // one full write section
  EXPECT_FALSE(lock.read_validate(e0));  // old snapshot stays invalid
  EXPECT_TRUE(lock.read_validate(e1));
}

TEST(SeqLock, WriterWaitsAreCounted) {
  SeqLock lock;
  LockContention c;
  lock.write_lock(&c);
  EXPECT_EQ(c.writer_waits.load(), 0u);  // uncontended: no wait recorded
  std::thread contender([&] { SeqLockWriteGuard guard(lock, &c); });
  // Give the contender time to hit the held lock, then release it.
  while (c.writer_waits.load() == 0) std::this_thread::yield();
  lock.write_unlock();
  contender.join();
  EXPECT_EQ(c.writer_waits.load(), 1u);
}

TEST(SeqLock, TryWriteLockTakesOnlyAFreeLock) {
  SeqLock lock;
  const u64 e0 = lock.read_begin();
  ASSERT_TRUE(lock.try_write_lock());
  EXPECT_FALSE(SeqLock::epoch_stable(lock.read_begin()));  // odd, like write_lock
  bool taken = true;
  std::thread([&] { taken = lock.try_write_lock(); }).join();
  EXPECT_FALSE(taken) << "a held lock is not taken again";
  lock.write_unlock();
  EXPECT_EQ(lock.read_begin(), e0 + 2);
  std::thread([&] {
    taken = lock.try_write_lock();
    if (taken) lock.write_unlock();
  }).join();
  EXPECT_TRUE(taken);
}

// A writer holds the lock past the spin bound. A get (the optimistic
// read, then the lock fallback, exactly as BasicConcurrentGroupHashMap::get
// runs them) waits out one bound on the odd epoch, counts one retry and
// exactly one fallback, parks on the lock, and returns the writer's value
// once it is released.
TEST(SeqLock, ReaderBehindALongSectionFallsBackOnce) {
  SeqLock lock;
  LockContention c;
  std::atomic<u64> value{1};
  lock.write_lock(&c);
  std::optional<u64> got;
  std::thread reader([&] {
    u64 seen = 0;
    if (core::optimistic_read(lock, c, ConcurrentGroupHashMap::kMaxOptimisticAttempts, [&] {
          seen = value.load(std::memory_order_relaxed);
          return true;
        })) {
      got = seen;
      return;
    }
    const SeqLockReadGuard guard(lock);
    got = value.load(std::memory_order_relaxed);
  });
  const bool fell_back = eventually([&] { return c.read_fallbacks() == 1; });
  value.store(2, std::memory_order_relaxed);
  lock.write_unlock();
  reader.join();
  ASSERT_TRUE(fell_back) << "the reader never gave up its optimistic read";
  EXPECT_EQ(got, std::optional<u64>(2));
  EXPECT_EQ(c.read_fallbacks(), 1u);
  EXPECT_EQ(c.read_retries(), 1u) << "one writer section waited out";
}

// A second writer behind a section that outlasts the spin bound stops
// spinning, counts one writer wait as it parks, and completes after the
// first writer.
TEST(SeqLock, WriterBehindALongSectionCountsOneWaitAndCompletes) {
  SeqLock lock;
  LockContention c;
  std::atomic<u64> value{1};
  lock.write_lock(&c);
  std::thread second([&] {
    const SeqLockWriteGuard guard(lock, &c);
    value.store(value.load(std::memory_order_relaxed) * 10, std::memory_order_relaxed);
  });
  const bool waiting = eventually([&] { return c.writer_waits.load() == 1; });
  value.store(2, std::memory_order_relaxed);
  lock.write_unlock();
  second.join();
  ASSERT_TRUE(waiting) << "the second writer never parked";
  EXPECT_EQ(c.writer_waits.load(), 1u);
  EXPECT_EQ(value.load(), 20u) << "the second write ran after the first";
  EXPECT_EQ(lock.read_begin(), 4u) << "two whole write sections";
}

/// First `n` keys of the shard that key 1 routes to, so every
/// operation in the torture loop contends on ONE seqlock.
template <class Map>
std::vector<u64> same_shard_keys(Map& map, usize n) {
  std::vector<u64> keys;
  const usize target = map.shard_index(1);
  for (u64 k = 1; keys.size() < n; ++k) {
    if (map.shard_index(k) == target) keys.push_back(k);
  }
  return keys;
}

TEST(SeqLockTorture, SingleShardReadersSeeNoTornValues) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 1 << 12});
  const auto keys = same_shard_keys(map, 16);
  for (const u64 k : keys) map.put(k, k * 1000);

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 8000;
  std::atomic<bool> stop{false};
  std::atomic<u64> torn{0};
  std::atomic<u64> missing{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const u64 k = keys[rng.next_below(keys.size())];
        const auto v = map.get(k);
        // Writers only overwrite (no erase): the key must stay present
        // and its value must always encode it.
        if (!v.has_value()) missing.fetch_add(1);
        else if (*v / 1000 != k) torn.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(200 + w);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const u64 k = keys[rng.next_below(keys.size())];
        map.put(k, k * 1000 + rng.next_below(1000));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(missing.load(), 0u);
  for (const u64 k : keys) EXPECT_EQ(*map.get(k) / 1000, k);
  // All write traffic hit one shard; its lock saw every mutation.
  const usize target = map.shard_index(1);
  const u64 epochs = 2ull * (keys.size() + kWriters * kOpsPerWriter);
  u64 other_contention = 0;
  const obs::Snapshot snap = map.snapshot();
  for (usize s = 0; s < map.shard_count(); ++s) {
    if (s == target) continue;
    other_contention += snap.per_shard[s].contention.read_retries;
  }
  EXPECT_EQ(other_contention, 0u);  // no cross-shard interference
  (void)epochs;
}

TEST(SeqLockTorture, ExactFinalCountsAfterChurn) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 1 << 13});
  const auto keys = same_shard_keys(map, 256);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    // Thread id owns keys[i] with i % kThreads == id: insert/erase churn,
    // ending present. Disjoint ownership makes the final state exact.
    threads.emplace_back([&, id] {
      for (int round = 0; round < 3; ++round) {
        for (usize i = id; i < keys.size(); i += kThreads) {
          map.put(keys[i], keys[i]);
          ASSERT_TRUE(map.erase(keys[i]));
        }
      }
      for (usize i = id; i < keys.size(); i += kThreads) map.put(keys[i], keys[i]);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(map.size(), keys.size());
  for (const u64 k : keys) EXPECT_EQ(*map.get(k), k);
}

TEST(SeqLockTorture, ReaderFallbackPreventsStarvation) {
  // Attempt budget 0: every optimistic read goes straight to the lock.
  // Correctness must not depend on validation ever succeeding.
  ConcurrentGroupHashMap map(4, {.initial_cells = 1 << 12});
  map.set_max_optimistic_attempts(0);
  const auto keys = same_shard_keys(map, 8);
  for (const u64 k : keys) map.put(k, k * 1000);

  std::atomic<bool> stop{false};
  std::atomic<u64> bad{0};
  std::atomic<u64> reads{0};
  std::thread reader([&] {
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const u64 k = keys[rng.next_below(keys.size())];
      const auto v = map.get(k);
      if (!v.has_value() || *v / 1000 != k) bad.fetch_add(1);
      reads.fetch_add(1);
    }
  });
  std::thread writer([&] {
    Xoshiro256 rng(8);
    for (int i = 0; i < 6000; ++i) {
      const u64 k = keys[rng.next_below(keys.size())];
      map.put(k, k * 1000 + rng.next_below(1000));
    }
  });
  writer.join();
  // The reader must observe at least one value (single-core schedulers may
  // not have run it yet) before the fallback-counter assertion can hold.
  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();

  EXPECT_EQ(bad.load(), 0u);
  const obs::ContentionSnapshot total = map.snapshot().contention;
  EXPECT_GT(total.read_fallbacks, 0u);  // every read fell back
  EXPECT_EQ(total.read_retries, 0u);    // no attempts were made
}

TEST(SeqLockTorture, StringMapReadersSeeNoTornValues) {
  ConcurrentStringMap map(4);
  const usize target = map.shard_index("key-1");
  std::vector<std::string> keys;
  for (u64 k = 1; keys.size() < 8; ++k) {
    std::string key = "key-" + std::to_string(k);
    if (map.shard_index(key) == target) keys.push_back(std::move(key));
  }
  for (usize i = 0; i < keys.size(); ++i) map.put(keys[i], (i + 1) * 1000);

  std::atomic<bool> stop{false};
  std::atomic<u64> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(300 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const usize i = rng.next_below(keys.size());
        const auto v = map.get(keys[i]);
        if (!v.has_value() || *v / 1000 != i + 1) bad.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    Xoshiro256 rng(400);
    for (int op = 0; op < 6000; ++op) {
      const usize i = rng.next_below(keys.size());
      map.put(keys[i], (i + 1) * 1000 + rng.next_below(1000));
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  for (usize i = 0; i < keys.size(); ++i) EXPECT_EQ(*map.get(keys[i]) / 1000, i + 1);
}

}  // namespace
}  // namespace gh
