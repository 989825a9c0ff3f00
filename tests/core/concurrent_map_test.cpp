#include "core/concurrent_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/inspect.hpp"

namespace gh {
namespace {

TEST(ConcurrentGroupHashMap, SingleThreadedBasics) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 1024});
  EXPECT_EQ(map.shard_count(), 4u);
  map.put(1, 10);
  map.put(2, 20);
  EXPECT_EQ(*map.get(1), 10u);
  EXPECT_EQ(*map.get(2), 20u);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.get(1).has_value());
  EXPECT_EQ(map.size(), 1u);
}

TEST(ConcurrentGroupHashMap, PutBatchRejectsKeyAboveMaxKeyInAnyShard) {
  // The bad key's shard need not be the first one the batch reaches: no
  // shard applies its share once any key is refused.
  ConcurrentGroupHashMap map(8, {.initial_cells = 8 * 1024});
  std::vector<u64> keys;
  for (u64 k = 1; k <= 64; ++k) keys.push_back(k);
  keys.push_back(hash::Cell16::kMaxKey + 1);
  const std::vector<u64> vals(keys.size(), 5);
  EXPECT_THROW(map.put_batch(keys, vals), std::invalid_argument);
  EXPECT_THROW(map.put(~u64{0}, 5), std::invalid_argument);
  EXPECT_EQ(map.size(), 0u);
  map.put(3, 30);  // the shard's lock was released on the throw
  EXPECT_EQ(map.get(3), std::optional<u64>(30));
}

// Reads and erases refuse a key above kMaxKey before any shard is read
// or written, the lock-free get included: probed, bit 63 would be
// dropped and the key would alias kAliased.
constexpr u64 kAliased = 154;
constexpr u64 kAlias = kAliased | (u64{1} << 63);

TEST(ConcurrentGroupHashMap, GetRejectsKeyAboveMaxKey) {
  ConcurrentGroupHashMap map(1, {.initial_cells = 1024});
  map.put(kAliased, 7);
  EXPECT_THROW((void)map.get(kAlias), std::invalid_argument);
}

TEST(ConcurrentGroupHashMap, GetBatchRejectsKeyAboveMaxKey) {
  ConcurrentGroupHashMap map(1, {.initial_cells = 1024});
  map.put(kAliased, 7);
  const std::vector<u64> keys = {kAliased, kAlias};
  std::vector<std::optional<u64>> out(keys.size());
  EXPECT_THROW(map.get_batch(keys, out), std::invalid_argument);
  EXPECT_FALSE(out[0].has_value()) << "nothing is read before the check";
}

TEST(ConcurrentGroupHashMap, EraseRejectsKeyAboveMaxKey) {
  ConcurrentGroupHashMap map(1, {.initial_cells = 1024});
  map.put(kAliased, 7);
  EXPECT_THROW(map.erase(kAlias), std::invalid_argument);
  EXPECT_EQ(map.get(kAliased), std::optional<u64>(7));
}

TEST(ConcurrentGroupHashMap, EraseBatchRejectsKeyAboveMaxKey) {
  ConcurrentGroupHashMap map(1, {.initial_cells = 1024});
  map.put(kAliased, 7);
  const std::vector<u64> keys = {kAliased, kAlias};
  EXPECT_THROW(map.erase_batch(keys), std::invalid_argument);
  EXPECT_EQ(map.get(kAliased), std::optional<u64>(7)) << "no shard applies its share";
}

TEST(ConcurrentGroupHashMap, KeysSpreadAcrossShards) {
  ConcurrentGroupHashMap map(8, {.initial_cells = 8 * 1024});
  for (u64 k = 1; k <= 4000; ++k) map.put(k, k);
  EXPECT_EQ(map.size(), 4000u);
  for (u64 k = 1; k <= 4000; ++k) EXPECT_EQ(*map.get(k), k);
}

TEST(ConcurrentGroupHashMap, ParallelDisjointWriters) {
  ConcurrentGroupHashMap map(16, {.initial_cells = 1 << 14});
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (u64 i = 0; i < kPerThread; ++i) {
        const u64 k = static_cast<u64>(t) * kPerThread + i + 1;
        map.put(k, k * 3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), kThreads * kPerThread);
  for (u64 k = 1; k <= kThreads * kPerThread; ++k) {
    ASSERT_TRUE(map.get(k).has_value()) << k;
    EXPECT_EQ(*map.get(k), k * 3);
  }
}

TEST(ConcurrentGroupHashMap, MixedReadersAndWriters) {
  ConcurrentGroupHashMap map(16, {.initial_cells = 1 << 14});
  for (u64 k = 1; k <= 1000; ++k) map.put(k, k);
  std::atomic<bool> stop{false};
  std::atomic<u64> read_errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (u64 k = 1; k <= 1000; ++k) {
        const auto v = map.get(k);
        if (!v.has_value() || *v != k) read_errors.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&map, t] {
      for (u64 i = 0; i < 3000; ++i) {
        map.put(10000 + static_cast<u64>(t) * 10000 + i, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(map.size(), 1000u + 4 * 3000u);
}

TEST(ConcurrentGroupHashMap, ConcurrentErase) {
  ConcurrentGroupHashMap map(8, {.initial_cells = 1 << 13});
  for (u64 k = 1; k <= 4000; ++k) map.put(k, k);
  std::vector<std::thread> erasers;
  std::atomic<u64> erased{0};
  for (int t = 0; t < 4; ++t) {
    erasers.emplace_back([&, t] {
      for (u64 k = static_cast<u64>(t) + 1; k <= 4000; k += 4) {
        if (map.erase(k)) erased.fetch_add(1);
      }
    });
  }
  for (auto& e : erasers) e.join();
  EXPECT_EQ(erased.load(), 4000u);
  EXPECT_EQ(map.size(), 0u);
}

TEST(ConcurrentGroupHashMapWide, WideKeysWork) {
  ConcurrentGroupHashMapWide map(4, {.initial_cells = 1024});
  map.put(Key128{1, 2}, 3);
  EXPECT_EQ(*map.get(Key128{1, 2}), 3u);
  EXPECT_FALSE(map.get(Key128{2, 1}).has_value());
}

TEST(ConcurrentGroupHashMap, RejectsNonPowerOfTwoShards) {
  EXPECT_DEATH(ConcurrentGroupHashMap(6, {}), "power of two");
}

// Regression: the shard split used to floor-divide initial_cells, so a
// request not divisible by the shard count silently lost capacity (e.g.
// 1000 cells / 16 shards -> 62 per shard = 992 total). The ceiling divide
// must guarantee the summed capacity covers the request.
TEST(ConcurrentGroupHashMap, ShardCapacityRoundsUpNotDown) {
  for (const usize shards : {2u, 4u, 8u, 16u}) {
    for (const u64 requested : {100ull, 1000ull, 4097ull, 10000ull}) {
      ConcurrentGroupHashMap map(shards, {.initial_cells = requested});
      EXPECT_GE(map.capacity(), requested)
          << shards << " shards, " << requested << " cells requested";
    }
  }
}

// An attempt budget of 0 is the mutex baseline bench/concurrency
// measures: every get takes the shard lock, with no optimistic attempt.
TEST(ConcurrentGroupHashMap, PessimisticModeMatchesSemantics) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 1024});
  map.set_max_optimistic_attempts(0);
  for (u64 k = 1; k <= 500; ++k) map.put(k, k * 7);
  for (u64 k = 1; k <= 500; ++k) EXPECT_EQ(*map.get(k), k * 7);
  EXPECT_FALSE(map.get(501).has_value());
  // Exactly one lock fallback per get, and never a retry.
  EXPECT_EQ(map.snapshot().contention.read_retries, 0u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 501u);
}

TEST(ConcurrentGroupHashMap, UncontendedReadsNeverRetry) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 1024});
  for (u64 k = 1; k <= 200; ++k) map.put(k, k);
  for (u64 k = 1; k <= 200; ++k) EXPECT_EQ(*map.get(k), k);
  const obs::ContentionSnapshot total = map.snapshot().contention;
  EXPECT_EQ(total.read_retries, 0u);
  EXPECT_EQ(total.read_fallbacks, 0u);
}

TEST(ConcurrentGroupHashMap, ReadsSurviveExpansion) {
  // Tiny shards force repeated expansion while a reader hammers existing
  // keys: views must be republished and stale ones stay dereferenceable.
  ConcurrentGroupHashMap map(2, {.initial_cells = 128});
  for (u64 k = 1; k <= 64; ++k) map.put(k, k * 11);
  std::atomic<bool> stop{false};
  std::atomic<u64> read_errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (u64 k = 1; k <= 64; ++k) {
        const auto v = map.get(k);
        if (!v.has_value() || *v != k * 11) read_errors.fetch_add(1);
      }
    }
  });
  for (u64 k = 65; k <= 20000; ++k) map.put(k, k * 11);
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  for (u64 k = 1; k <= 20000; ++k) ASSERT_EQ(*map.get(k), k * 11) << k;
}

TEST(ConcurrentGroupHashMap, InspectShardsAggregates) {
  ConcurrentGroupHashMap map(4, {.initial_cells = 2048});
  for (u64 k = 1; k <= 1000; ++k) map.put(k, k);
  auto report = inspect_shards(map);
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_EQ(report.total_occupied, 1000u);
  EXPECT_EQ(report.total_torn_cells, 0u);
  EXPECT_GE(report.total_capacity, 2048u);
  EXPECT_TRUE(report.clean());
  u64 summed = 0;
  for (const auto& s : report.shards) summed += s.table.scanned_occupied;
  EXPECT_EQ(summed, 1000u);
}

}  // namespace
}  // namespace gh
