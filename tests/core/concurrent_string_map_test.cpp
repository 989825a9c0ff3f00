#include "core/concurrent_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <thread>
#include <vector>

namespace gh {
namespace {

TEST(ConcurrentStringMap, SingleThreadedBasics) {
  ConcurrentStringMap map(4);
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
  ConcurrentStringMap map(8);
  for (u64 k = 0; k < 4000; ++k) map.put("key-" + std::to_string(k), k);
  EXPECT_EQ(map.size(), 4000u);
  for (u64 k = 0; k < 4000; ++k) {
    EXPECT_EQ(*map.get("key-" + std::to_string(k)), k) << k;
  }
}

TEST(ConcurrentStringMap, UncontendedReadsNeverFallBack) {
  ConcurrentStringMap map(4);
  for (u64 k = 0; k < 500; ++k) map.put("k" + std::to_string(k), k);
  for (u64 k = 0; k < 500; ++k) EXPECT_EQ(*map.get("k" + std::to_string(k)), k);
  EXPECT_EQ(map.snapshot().contention.read_retries, 0u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 0u);
}

TEST(ConcurrentStringMap, OversizedKeysReadThroughLock) {
  // A long key runs the same optimistic protocol as a short one (the
  // probe compares the key bytes in place): lock-free by default, and
  // one lock fallback each once the attempt budget is zero.
  ConcurrentStringMap map(2);
  const std::string big(4096, 'x');
  map.put(big, 42);
  map.put("short", 7);
  EXPECT_EQ(*map.get(big), 42u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 0u);
  map.set_max_optimistic_attempts(0);
  EXPECT_EQ(*map.get("short"), 7u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 1u);
  EXPECT_EQ(*map.get(big), 42u);
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 2u);
}

// The mutex baseline (attempt budget 0) over the batched path too: each
// shard's share of a get_batch takes the lock once, like one get.
TEST(ConcurrentStringMap, PessimisticMode) {
  ConcurrentStringMap map(4);
  map.set_max_optimistic_attempts(0);
  map.put("a", 1);
  map.put("a", 2);
  map.put("b", 3);
  EXPECT_TRUE(map.erase("b"));
  EXPECT_EQ(*map.get("a"), 2u);
  EXPECT_FALSE(map.get("b").has_value());
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 2u);
  const std::vector<std::string_view> keys{"a", "b"};
  std::vector<std::optional<u64>> out(keys.size());
  map.get_batch(keys, out);
  EXPECT_EQ(out[0], std::optional<u64>(2));
  EXPECT_FALSE(out[1].has_value());
  const usize shards_hit = map.shard_index("a") == map.shard_index("b") ? 1 : 2;
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 2u + shards_hit);
  EXPECT_EQ(map.snapshot().contention.read_retries, 0u);
}

TEST(ConcurrentStringMap, StarvationFallbackWithZeroAttempts) {
  ConcurrentStringMap map(2);
  map.set_max_optimistic_attempts(0);
  map.put("a", 1);
  EXPECT_EQ(*map.get("a"), 1u);
  EXPECT_FALSE(map.get("missing").has_value());
  EXPECT_EQ(map.snapshot().contention.read_fallbacks, 2u);
}

TEST(ConcurrentStringMap, ParallelDisjointWriters) {
  ConcurrentStringMap map(8);
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
  ConcurrentStringMap map(2, {.map = {.initial_cells = 256}, .arena_bytes_per_cell = 32});
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

// Shards drain every resize one group per op, and a small arena fills
// with the garbage of put/erase churn, so compactions run as live
// migrations while readers probe the dual view: the target first, then
// the old table, each hit resolved in its own table's arena. `batched`
// makes the same writes in put_batch/erase_batch windows of 8 keys (one
// help-along step per window) instead of one call per key.
void reads_survive_incremental_compaction(bool batched) {
  ConcurrentStringMap map(2, {.map = {.initial_cells = 256,
                                      .group_size = 8,  // 8 groups: a resize spans 8 ops
                                      .migrate_groups_per_op = 1},
                              .arena_bytes_per_cell = 16});
  constexpr u64 kKeys = 64;
  constexpr u64 kVersion = 1'000'000;  // value = key * kVersion + version
  const auto key = [](u64 k) { return "stable-" + std::to_string(k); };
  const u64 window = batched ? 8 : 1;  // keys per write call
  std::vector<std::atomic<u64>> written(kKeys);  // last version whose put returned
  for (u64 k = 0; k < kKeys; ++k) map.put(key(k), k * kVersion);

  const auto put = [&](const std::vector<std::string>& names, const std::vector<u64>& values) {
    if (batched) {
      map.put_batch(std::vector<std::string_view>(names.begin(), names.end()), values);
    } else {
      for (usize i = 0; i < names.size(); ++i) map.put(names[i], values[i]);
    }
  };
  const auto erase = [&](const std::vector<std::string>& names) {
    if (batched) {
      std::vector<u8> hits(names.size());
      map.erase_batch(std::vector<std::string_view>(names.begin(), names.end()), hits);
      for (const u8 hit : hits) EXPECT_EQ(hit, 1u);
    } else {
      for (const std::string& name : names) EXPECT_TRUE(map.erase(name));
    }
  };
  u64 churn = 0;
  // The next `window` churn keys, each valued with its churn number.
  const auto next_churn = [&] {
    std::pair<std::vector<std::string>, std::vector<u64>> batch;
    for (u64 i = 0; i < window; ++i, ++churn) {
      batch.first.push_back("churn-" + std::to_string(churn));
      batch.second.push_back(churn);
    }
    return batch;
  };

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
  for (u64 round = 1; round <= kRounds; ++round) {
    for (u64 first = 0; first < kKeys; first += window) {
      std::vector<std::string> names;
      std::vector<u64> values;
      for (u64 k = first; k < first + window; ++k) {
        names.push_back(key(k));
        values.push_back(k * kVersion + round);
      }
      put(names, values);
      for (u64 k = first; k < first + window; ++k) {
        written[k].store(round, std::memory_order_release);
      }
      let_readers_look();
    }
    for (u64 i = 0; i < 8; i += window) {
      const auto [names, values] = next_churn();
      put(names, values);
      let_readers_look();
      erase(names);
      let_readers_look();
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  // Uncontended, every optimistic read is conclusive, mid-migration too:
  // an old-table hit must resolve in the old table's own arena.
  const u64 fallbacks = map.snapshot().contention.read_fallbacks;
  for (u64 i = 0; i < 256; i += window) {
    const auto [names, values] = next_churn();
    put(names, values);
    erase(names);
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

TEST(ConcurrentStringMap, ReadsSurviveIncrementalCompaction) {
  reads_survive_incremental_compaction(/*batched=*/false);
}

TEST(ConcurrentStringMap, ReadsSurviveIncrementalCompactionBatched) {
  reads_survive_incremental_compaction(/*batched=*/true);
}

}  // namespace
}  // namespace gh
