// Torture: lock-free readers vs writers while shards resize online.
//
// The concurrent wrapper's read path is where the online resize earns
// its keep — or corrupts data. While a shard migrates, readers probe a
// dual view (migration target first, then the draining old table) under
// one seqlock epoch; writers help the drain along, which can
// restructure the shard (start, drain, finalize) on
// ANY mutating op. This suite hammers exactly those windows from many
// threads and asserts reads are always exact — a hit returns the
// precise value written, never stale, torn, or duplicated state. Runs
// under TSan in CI (concurrency lane).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/concurrent_map.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

constexpr u64 kWriters = 4;
constexpr u64 kReaders = 4;
constexpr u64 kKeysPerWriter = 3000;

u64 torture_key(u64 writer, u64 i) { return 1 + writer * kKeysPerWriter + i; }
u64 torture_value(u64 key) { return key * 31 + 7; }

MapOptions torture_options() {
  MapOptions o;
  o.initial_cells = 256;  // tiny per-shard tables: migrations fire early and often
  o.group_size = 8;
  o.flush_latency_ns = 0;
  o.migrate_groups_per_op = 1;
  return o;
}

TEST(MigrationTorture, ReadsStayExactWhileShardsResizeOnline) {
  ConcurrentGroupHashMap map(4, torture_options());

  // progress[w] = keys writer w has durably put (monotone; readers only
  // assert about the committed prefix). erased[w] flips once writer w
  // has removed every 5th of its keys.
  std::vector<std::atomic<u64>> progress(kWriters);
  std::vector<std::atomic<bool>> erased(kWriters);
  for (auto& p : progress) p.store(0);
  for (auto& e : erased) e.store(false);
  std::atomic<bool> done{false};
  std::atomic<u64> failures{0};

  std::vector<std::thread> writers;
  for (u64 w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (u64 i = 0; i < kKeysPerWriter; ++i) {
        const u64 k = torture_key(w, i);
        map.put(k, torture_value(k));
        progress[w].store(i + 1, std::memory_order_release);
      }
      // Erase phase: delete every 5th key, so the dual-view read path is
      // exercised against tombstoned state in both halves too.
      for (u64 i = 0; i < kKeysPerWriter; i += 5) {
        map.erase(torture_key(w, i));
      }
      erased[w].store(true, std::memory_order_release);
    });
  }

  std::vector<std::thread> readers;
  for (u64 r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(r * 7919 + 13);
      while (!done.load(std::memory_order_acquire)) {
        const u64 w = rng.next_below(kWriters);
        const u64 p = progress[w].load(std::memory_order_acquire);
        if (p == 0) continue;
        const u64 i = rng.next_below(p);
        const u64 k = torture_key(w, i);
        const auto got = map.get(k);
        if (got) {
          // A hit must be the exact committed value, whatever shard
          // restructure raced this probe.
          if (*got != torture_value(k)) failures.fetch_add(1);
        } else if (i % 5 != 0) {
          // Only the erase phase may remove keys, and only multiples
          // of 5; any other miss inside the committed prefix is a
          // lost committed write.
          failures.fetch_add(1);
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);

  // Quiesced end state: every surviving key exact, every erased key gone.
  for (u64 w = 0; w < kWriters; ++w) {
    for (u64 i = 0; i < kKeysPerWriter; ++i) {
      const u64 k = torture_key(w, i);
      const auto got = map.get(k);
      if (i % 5 == 0) {
        ASSERT_FALSE(got.has_value()) << "erased key " << k << " resurrected";
      } else {
        ASSERT_TRUE(got.has_value()) << "lost key " << k;
        ASSERT_EQ(*got, torture_value(k)) << "key " << k;
      }
    }
  }
  EXPECT_EQ(map.size(), kWriters * (kKeysPerWriter - (kKeysPerWriter + 4) / 5));

  // The run must actually have exercised the machinery it claims to.
  const obs::Snapshot s = map.snapshot();
  EXPECT_GE(s.migration.started, 1u) << "workload too small to trigger online resizes";
  EXPECT_EQ(s.migration.started, s.migration.completed + s.migration.active);
}

TEST(MigrationTorture, BatchedOpsRaceOnlineResize) {
  // Same discipline through the batched paths: get_batch sub-batches
  // validate one epoch over a dual view; put_batch/erase_batch help the
  // drain and may restructure mid-batch-sequence.
  ConcurrentGroupHashMap map(2, torture_options());
  constexpr u64 kBatch = 64;
  constexpr u64 kRounds = 120;

  std::atomic<u64> rounds_done{0};
  std::atomic<bool> done{false};
  std::atomic<u64> failures{0};

  std::thread writer([&] {
    std::vector<u64> keys(kBatch);
    std::vector<u64> vals(kBatch);
    for (u64 round = 0; round < kRounds; ++round) {
      for (u64 j = 0; j < kBatch; ++j) {
        keys[j] = 1 + round * kBatch + j;
        vals[j] = torture_value(keys[j]);
      }
      map.put_batch(keys, vals);
      rounds_done.store(round + 1, std::memory_order_release);
    }
  });

  std::thread reader([&] {
    Xoshiro256 rng(99);
    std::vector<u64> keys(kBatch);
    std::vector<std::optional<u64>> out(kBatch);
    while (!done.load(std::memory_order_acquire)) {
      const u64 p = rounds_done.load(std::memory_order_acquire);
      if (p == 0) continue;
      const u64 round = rng.next_below(p);
      for (u64 j = 0; j < kBatch; ++j) keys[j] = 1 + round * kBatch + j;
      out.assign(kBatch, std::nullopt);
      map.get_batch(keys, out);
      for (u64 j = 0; j < kBatch; ++j) {
        if (!out[j] || *out[j] != torture_value(keys[j])) failures.fetch_add(1);
      }
    }
  });

  writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(map.size(), kRounds * kBatch);
  for (u64 round = 0; round < kRounds; ++round) {
    for (u64 j = 0; j < kBatch; ++j) {
      const u64 k = 1 + round * kBatch + j;
      ASSERT_EQ(map.get(k), torture_value(k)) << k;
    }
  }
}

}  // namespace
}  // namespace gh
