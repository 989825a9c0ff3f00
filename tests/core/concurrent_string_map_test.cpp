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
      {.shards = 2, .shard_options = {.initial_cells = 256, .arena_bytes_per_cell = 32}});
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

}  // namespace
}  // namespace gh
