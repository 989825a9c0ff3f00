#include "core/concurrent_string_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace gh {
namespace {

TEST(ConcurrentStringMap, SingleThreadedBasics) {
  ConcurrentStringMap map({.shards = 4});
  EXPECT_EQ(map.shard_count(), 4u);
  map.put("alpha", 1);
  map.put("beta", 2);
  EXPECT_EQ(*map.get("alpha"), 1u);
  EXPECT_EQ(*map.get("beta"), 2u);
  EXPECT_FALSE(map.get("gamma").has_value());
  map.put("alpha", 10);
  EXPECT_EQ(*map.get("alpha"), 10u);
  EXPECT_TRUE(map.erase("beta"));
  EXPECT_FALSE(map.get("beta").has_value());
  EXPECT_EQ(map.size(), 1u);
}

TEST(ConcurrentStringMap, ManyKeysAcrossShards) {
  ConcurrentStringMap map({.shards = 8});
  for (u64 k = 0; k < 4000; ++k) map.put("key-" + std::to_string(k), k);
  EXPECT_EQ(map.size(), 4000u);
  for (u64 k = 0; k < 4000; ++k) {
    EXPECT_EQ(*map.get("key-" + std::to_string(k)), k) << k;
  }
}

TEST(ConcurrentStringMap, UncontendedReadsNeverFallBack) {
  ConcurrentStringMap map({.shards = 4});
  for (u64 k = 0; k < 500; ++k) map.put("k" + std::to_string(k), k);
  for (u64 k = 0; k < 500; ++k) EXPECT_EQ(*map.get("k" + std::to_string(k)), k);
  EXPECT_EQ(map.snapshot().contention.read_retries, 0u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 0u);
}

TEST(ConcurrentStringMap, OversizedKeysReadThroughLock) {
  ConcurrentStringMap map({.shards = 2});
  const std::string big(ConcurrentStringMap::kMaxOptimisticKeyBytes + 1, 'x');
  map.put(big, 42);
  EXPECT_EQ(*map.get(big), 42u);
}

TEST(ConcurrentStringMap, PessimisticMode) {
  ConcurrentStringMap map({.shards = 4, .lock_mode = LockMode::kPessimistic});
  EXPECT_EQ(map.lock_mode(), LockMode::kPessimistic);
  map.put("a", 1);
  EXPECT_EQ(*map.get("a"), 1u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 0u);
}

TEST(ConcurrentStringMap, StarvationFallbackWithZeroAttempts) {
  ConcurrentStringMap map({.shards = 2});
  map.set_max_optimistic_attempts(0);
  map.put("a", 1);
  EXPECT_EQ(*map.get("a"), 1u);
  EXPECT_FALSE(map.get("missing").has_value());
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 2u);
}

TEST(ConcurrentStringMap, ParallelDisjointWriters) {
  ConcurrentStringMap map({.shards = 8});
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (u64 i = 0; i < kPerThread; ++i) {
        map.put("t" + std::to_string(t) + "-" + std::to_string(i), i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (u64 i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(*map.get("t" + std::to_string(t) + "-" + std::to_string(i)), i);
    }
  }
}

TEST(ConcurrentStringMap, ReadsSurviveCompaction) {
  // Small shards + sustained inserts force compactions (which move the
  // arena AND the table) while a reader hammers established keys. The
  // retired regions stay mapped, so stale probes are harmless and are
  // discarded by validation.
  ConcurrentStringMap map(
      {.shards = 2,
       .shard_options = {.map = {.initial_cells = 256}, .arena_bytes_per_cell = 32}});
  for (u64 k = 0; k < 100; ++k) map.put("stable-" + std::to_string(k), k * 11);
  std::atomic<bool> stop{false};
  std::atomic<u64> bad{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (u64 k = 0; k < 100; ++k) {
        const auto v = map.get("stable-" + std::to_string(k));
        if (!v.has_value() || *v != k * 11) bad.fetch_add(1);
      }
    }
  });
  for (u64 k = 0; k < 8000; ++k) {
    map.put("filler-" + std::to_string(k), k);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(map.size(), 100u + 8000u);
  for (u64 k = 0; k < 8000; ++k) {
    ASSERT_EQ(*map.get("filler-" + std::to_string(k)), k) << k;
  }
}

TEST(ConcurrentStringMap, ReadsSurviveIncrementalCompaction) {
  // Shards drain every resize one group per op, and a small arena fills
  // with the garbage of put/erase churn, so compactions run as live
  // migrations while readers probe the dual view: the target first,
  // then the old table, each hit resolved in its own table's arena.
  ConcurrentStringMap map(
      {.shards = 2,
       .shard_options = {.map = {.initial_cells = 256,
                                 .group_size = 8,  // 8 groups: a resize spans 8 ops
                                 .migrate_groups_per_op = 1},
                         .arena_bytes_per_cell = 16}});
  constexpr u64 kKeys = 64;
  constexpr u64 kVersion = 1'000'000;  // value = key * kVersion + version
  const auto key = [](u64 k) { return "stable-" + std::to_string(k); };
  std::vector<std::atomic<u64>> written(kKeys);  // last version whose put returned
  for (u64 k = 0; k < kKeys; ++k) map.put(key(k), k * kVersion);

  // Reader 0 counts its full passes, and the writer waits for one to
  // start and finish after every write. So the readers probe every
  // state between ops — mid-migration ones included — under a stable
  // epoch, rather than only retrying against a writer that never
  // pauses.
  std::atomic<bool> stop{false};
  std::atomic<u64> bad{0};
  std::atomic<u64> passes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (u64 k = 0; k < kKeys; ++k) {
          const u64 lo = written[k].load(std::memory_order_acquire);
          const auto v = map.get(key(k));
          const u64 hi = written[k].load(std::memory_order_acquire) + 1;
          // Some version of this key committed no earlier than the read
          // began, and no later than the put in flight when it ended.
          const u64 version = v.value_or(0) % kVersion;
          if (!v.has_value() || *v / kVersion != k || version < lo || version > hi) {
            bad.fetch_add(1);
          }
        }
        if (t == 0) passes.fetch_add(1, std::memory_order_release);
      }
    });
  }
  const auto let_readers_look = [&] {
    const u64 seen = passes.load(std::memory_order_acquire);
    while (passes.load(std::memory_order_acquire) < seen + 2) std::this_thread::yield();
  };
  constexpr u64 kRounds = 60;
  u64 churn = 0;
  for (u64 round = 1; round <= kRounds; ++round) {
    for (u64 k = 0; k < kKeys; ++k) {
      map.put(key(k), k * kVersion + round);
      written[k].store(round, std::memory_order_release);
      let_readers_look();
    }
    for (int i = 0; i < 8; ++i, ++churn) {
      map.put("churn-" + std::to_string(churn), churn);
      let_readers_look();
      EXPECT_TRUE(map.erase("churn-" + std::to_string(churn)));
      let_readers_look();
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  // Uncontended, every optimistic read is conclusive, mid-migration too:
  // an old-table hit must resolve in the old table's own arena.
  const u64 fallbacks = map.snapshot().contention.read_fallbacks;
  for (int i = 0; i < 256; ++i, ++churn) {
    map.put("churn-" + std::to_string(churn), churn);
    EXPECT_TRUE(map.erase("churn-" + std::to_string(churn)));
    for (u64 k = 0; k < kKeys; ++k) ASSERT_EQ(map.get(key(k)), k * kVersion + kRounds);
  }
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, fallbacks);
  const obs::Snapshot s = map.snapshot();
  EXPECT_GT(s.lifecycle.compactions, 0u);
  EXPECT_GT(s.migration.groups_migrated, s.migration.completed) << "no migration spanned ops";
  // The final contents match the sequential oracle.
  EXPECT_EQ(map.size(), kKeys);
  for (u64 k = 0; k < kKeys; ++k) EXPECT_EQ(map.get(key(k)), k * kVersion + kRounds) << k;
  for (u64 c = 0; c < churn; ++c) EXPECT_FALSE(map.get("churn-" + std::to_string(c)));
}

}  // namespace
}  // namespace gh
