// Observability vs concurrency torture (runs under TSan via the
// `concurrency` ctest label): writer threads hammer a ConcurrentStringMap
// while a poller thread loops snapshot() + export_json(). Checks:
//   * no data races (TSan) and no torn values — every sampled counter is
//     plausible (bounded by the work actually submitted)
//   * counters are monotone across successive snapshots
//   * export_json always validates mid-flight
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_map.hpp"
#include "obs/export.hpp"
#include "obs/snapshot.hpp"

namespace gh {
namespace {

TEST(ObsTorture, StringMapSnapshotUnderWriters) {
  StringMapOptions options;
  options.map.initial_cells = 256;  // force compactions mid-run
  options.map.latency_sample_shift = 0;
  ConcurrentStringMap map(8, options);

  constexpr int kWriters = 4;
  constexpr u64 kOpsPerWriter = 4000;
  std::atomic<bool> done{false};
  std::atomic<u64> submitted{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (u64 i = 0; i < kOpsPerWriter; ++i) {
        const std::string key = "w" + std::to_string(w) + "-" + std::to_string(i);
        map.put(key, i);
        submitted.fetch_add(1, std::memory_order_relaxed);
        if ((i & 7) == 0) (void)map.get(key);
        if ((i & 63) == 0) (void)map.erase(key);
      }
    });
  }

  u64 polls = 0;
  obs::Snapshot prev;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::Snapshot s = map.snapshot();
      // Monotone: lifetime counters never go backwards between polls.
      EXPECT_GE(s.table.inserts, prev.table.inserts);
      EXPECT_GE(s.persist.lines_flushed, prev.persist.lines_flushed);
      EXPECT_GE(s.lifecycle.compactions, prev.lifecycle.compactions);
      EXPECT_GE(s.latency.insert.count, prev.latency.insert.count);
      // Plausible: never more ops reported than submitted so far PLUS the
      // rebuild reinserts of compactions (bounded by compactions * size).
      EXPECT_LE(s.size, submitted.load(std::memory_order_relaxed));
      EXPECT_EQ(s.per_shard.size(), 8u);
      std::string error;
      EXPECT_TRUE(obs::validate_json(obs::export_json(s), &error)) << error;
      prev = std::move(s);
      ++polls;
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls, 0u);

  const obs::Snapshot fin = map.snapshot();
  // Everything not erased is present; erased ops are 1 in 64 per writer.
  EXPECT_GT(fin.size, kWriters * kOpsPerWriter * 9 / 10);
  if (obs::kEnabled) {
    EXPECT_GE(fin.latency.insert.count, kWriters * kOpsPerWriter);
  }
}

TEST(ObsTorture, GroupMapSnapshotDuringExpansion) {
  // Tiny shards so writers drive expansions while the poller samples:
  // counters must survive the table swap (snapshot taken under the shard
  // seqlock read side).
  ConcurrentGroupHashMap map(4, {.initial_cells = 256, .latency_sample_shift = 0});
  constexpr int kWriters = 4;
  constexpr u64 kOpsPerWriter = 8000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (u64 i = 0; i < kOpsPerWriter; ++i) {
        map.put((u64(w) << 32) | (i + 1), i);
      }
    });
  }

  obs::Snapshot prev;
  u64 max_expansions = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::Snapshot s = map.snapshot();
      EXPECT_GE(s.table.inserts, prev.table.inserts);
      EXPECT_GE(s.lifecycle.expansions, prev.lifecycle.expansions);
      max_expansions = s.lifecycle.expansions;
      prev = s;
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();

  const obs::Snapshot fin = map.snapshot();
  EXPECT_EQ(fin.size, u64{kWriters} * kOpsPerWriter);
  EXPECT_GT(fin.lifecycle.expansions, 0u) << "test never exercised expansion";
  EXPECT_GE(fin.lifecycle.expansions, max_expansions);
  if (obs::kEnabled) {
    // Inserts are counted at op granularity even across expansions.
    EXPECT_GE(fin.latency.insert.count, u64{kWriters} * kOpsPerWriter);
  }
}

}  // namespace
}  // namespace gh
