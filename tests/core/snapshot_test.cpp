// Unified snapshot() API tests + the counter-lifecycle audit:
//   * one call returns persist/table/scrub/lifecycle/latency on a live map
//   * counters survive expansion and string-map compaction (regression:
//     rebuild() used to drop the table stats on compaction)
//   * abandon() resets every observability surface coherently, and
//     snapshot() and arena_usage() stay safe to call afterwards
//   * reopen/recovery paths count as such
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/concurrent_map.hpp"
#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "obs/export.hpp"
#include "obs/snapshot.hpp"
#include "support/temp_path.hpp"

namespace gh {
namespace {

using gh::test::temp_path;

MapOptions every_op_options(u64 cells) {
  // shift=0: time every op, so histogram counts are exact for assertions.
  return {.initial_cells = cells, .latency_sample_shift = 0};
}

TEST(SnapshotApi, LiveMapOneCall) {
  auto map = GroupHashMap::create_in_memory(every_op_options(1 << 12));
  for (u64 k = 1; k <= 1000; ++k) map.put(k, k);
  for (u64 k = 1; k <= 500; ++k) (void)map.get(k);
  (void)map.erase(1);

  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.source, "GroupHashMap");
  EXPECT_EQ(s.size, 999u);
  EXPECT_GT(s.capacity, 0u);
  EXPECT_GT(s.load_factor, 0.0);
  EXPECT_GT(s.persist.lines_flushed, 0u);
  EXPECT_GT(s.persist.fences, 0u);
  EXPECT_GE(s.table.inserts, 1000u);
  EXPECT_GE(s.table.queries, 500u);
  EXPECT_GE(s.table.erase_hits, 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(s.latency.insert.count, 1000u);
    // get() and the upsert's internal lookups both count as finds at the
    // table layer; the map-level find histogram counts get() calls only.
    EXPECT_EQ(s.latency.find.count, 500u);
    EXPECT_EQ(s.latency.erase.count, 1u);
    EXPECT_GT(s.latency.insert.p50_ns, 0.0);
    EXPECT_LE(s.latency.insert.p50_ns, s.latency.insert.p99_ns);
  } else {
    EXPECT_EQ(s.latency.insert.count, 0u);
  }
}

TEST(SnapshotApi, SampledLatencyDefaultsOn) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  constexpr u64 kOps = 1000;
  for (u64 k = 1; k <= kOps; ++k) map.put(k, k);
  const obs::Snapshot s = map.snapshot();
  // Default gate: 1 in 2^6 ops timed, first op always admitted.
  EXPECT_GE(s.latency.insert.count, kOps >> obs::kDefaultSampleShift);
  EXPECT_LT(s.latency.insert.count, kOps);
}

TEST(SnapshotApi, CountersSurviveExpansion) {
  auto map = GroupHashMap::create_in_memory(every_op_options(64));
  u64 k = 0;
  obs::Snapshot before = map.snapshot();
  while (map.snapshot().lifecycle.expansions == 0) {
    ++k;
    map.put(k, k);
    ASSERT_LT(k, 100000u) << "map never expanded";
  }
  const obs::Snapshot after = map.snapshot();
  EXPECT_GE(after.table.inserts, k) << "table stats dropped by expansion rebuild";
  EXPECT_GE(after.persist.lines_flushed, before.persist.lines_flushed);
  if (obs::kEnabled) {
    EXPECT_EQ(after.latency.insert.count, k);
    EXPECT_EQ(after.latency.expand.count, 1u);
  }
  // The map still serves every key after the rebuild.
  for (u64 i = 1; i <= k; ++i) ASSERT_TRUE(map.get(i).has_value()) << i;
}

TEST(SnapshotApi, StringMapCountersSurviveCompaction) {
  // Regression: PersistentStringMap::rebuild() used to reset table stats.
  auto map = PersistentStringMap::create_in_memory(
      {.map = {.initial_cells = 256, .latency_sample_shift = 0}, .arena_bytes_per_cell = 32});
  u64 n = 0;
  while (map.snapshot().lifecycle.compactions == 0) {
    ++n;
    map.put("key-" + std::to_string(n), n);
    ASSERT_LT(n, 100000u) << "map never compacted";
  }
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.source, "PersistentStringMap");
  EXPECT_GE(s.table.inserts, n) << "table stats dropped by compaction rebuild";
  EXPECT_EQ(s.lifecycle.compactions, 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(s.latency.insert.count, n);
    EXPECT_EQ(s.latency.compact.count, 1u);
  }
  for (u64 i = 1; i <= n; ++i) {
    ASSERT_TRUE(map.get("key-" + std::to_string(i)).has_value()) << i;
  }
}

TEST(SnapshotApi, AbandonResetsCoherentlyAndStaysSafe) {
  auto map = GroupHashMap::create_in_memory(every_op_options(1 << 10));
  for (u64 k = 1; k <= 100; ++k) map.put(k, k);
  ASSERT_GT(map.snapshot().persist.lines_flushed, 0u);
  map.abandon();
  // Every surface is zero together — not a mix of stale and fresh.
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.size, 0u);
  EXPECT_EQ(s.persist.lines_flushed, 0u);
  EXPECT_EQ(s.table.inserts, 0u);
  EXPECT_EQ(s.latency.insert.count, 0u);
  EXPECT_EQ(s.lifecycle.expansions, 0u);
  EXPECT_EQ(s.scrub.groups_scrubbed, 0u);
}

TEST(SnapshotApi, StringMapAbandonResets) {
  auto map = PersistentStringMap::create_in_memory({.map = {.latency_sample_shift = 0}});
  map.put("a", 1);
  map.put("b", 2);
  map.abandon();
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.size, 0u);
  EXPECT_EQ(s.persist.lines_flushed, 0u);
  EXPECT_EQ(s.latency.insert.count, 0u);
  EXPECT_EQ(s.lifecycle.compactions, 0u);
  EXPECT_EQ(map.arena_usage().used, 0u);
}

TEST(SnapshotApi, RecoveryAfterCrashCounts) {
  const std::string path = temp_path("snapshot_recovery.gh");
  {
    auto map = GroupHashMap::create(path, every_op_options(1 << 10));
    for (u64 k = 1; k <= 200; ++k) map.put(k, k);
    map.abandon();  // simulated crash: superblock stays dirty
  }
  auto map = GroupHashMap::open(path, every_op_options(1 << 10));
  EXPECT_TRUE(map.recovered_on_open());
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.size, 200u);
  EXPECT_EQ(s.lifecycle.recoveries, 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(s.latency.recover.count, 1u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotApi, CleanReopenStartsFreshCounters) {
  const std::string path = temp_path("snapshot_reopen.gh");
  {
    auto map = GroupHashMap::create(path, every_op_options(1 << 10));
    for (u64 k = 1; k <= 50; ++k) map.put(k, k);
    map.close();
  }
  auto map = GroupHashMap::open(path, every_op_options(1 << 10));
  EXPECT_FALSE(map.recovered_on_open());
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.size, 50u);         // data is durable...
  EXPECT_EQ(s.lifecycle.recoveries, 0u);
  EXPECT_EQ(s.table.inserts, 0u);  // ...counters are per-process
  if (obs::kEnabled) {
    EXPECT_EQ(s.latency.insert.count, 0u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotApi, ConcurrentWrapperAggregatesShards) {
  ConcurrentGroupHashMap map(4, every_op_options(1 << 12));
  for (u64 k = 1; k <= 2000; ++k) map.put(k, k);
  for (u64 k = 1; k <= 1000; ++k) (void)map.get(k);
  obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.source, "ConcurrentGroupHashMap");
  EXPECT_EQ(s.shards, 4u);
  ASSERT_EQ(s.per_shard.size(), 4u);
  EXPECT_EQ(s.size, 2000u);
  u64 shard_sizes = 0;
  for (const auto& sh : s.per_shard) shard_sizes += sh.size;
  EXPECT_EQ(shard_sizes, 2000u);
  EXPECT_GE(s.table.inserts, 2000u);
  if (obs::kEnabled) {
    EXPECT_EQ(s.latency.insert.count, 2000u);
  }
  // And the whole thing exports.
  std::string error;
  EXPECT_TRUE(obs::validate_json(obs::export_json(s), &error)) << error;
}

TEST(SnapshotApi, SnapshotIsMonotoneBetweenCalls) {
  auto map = GroupHashMap::create_in_memory(every_op_options(1 << 12));
  obs::Snapshot prev = map.snapshot();
  for (int round = 0; round < 5; ++round) {
    for (u64 k = 0; k < 200; ++k) map.put(u64(round) * 200 + k + 1, k);
    const obs::Snapshot cur = map.snapshot();
    EXPECT_GE(cur.table.inserts, prev.table.inserts);
    EXPECT_GE(cur.persist.lines_flushed, prev.persist.lines_flushed);
    EXPECT_GE(cur.latency.insert.count, prev.latency.insert.count);
    prev = cur;
  }
}

// Regression: an op that returned early or threw after claiming the
// thread's phase scratch never released it, so every later op on that
// thread recorded no phases or spans.
TEST(SnapshotApi, PhaseScratchSurvivesEarlyScrubReturn) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 1 << 10, .checksum_groups = false, .latency_sample_shift = 0});
  (void)map.scrub();  // returns early: the map keeps no checksums
  map.put(1, 1);
  EXPECT_GE(map.snapshot().phases.of(obs::OpKind::kInsert).samples, 1u);
}

TEST(SnapshotApi, PhaseScratchSurvivesThrowingPut) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 16, .auto_expand = false, .latency_sample_shift = 0});
  bool threw = false;
  for (u64 k = 1; k <= 64 && !threw; ++k) {
    try {
      map.put(k, k);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw) << "the tiny map never filled up";
  (void)map.get(1);
  EXPECT_GE(map.snapshot().phases.of(obs::OpKind::kFind).samples, 1u);
}

}  // namespace
}  // namespace gh
