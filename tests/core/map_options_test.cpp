// Edge cases of the public map options and lifecycle not covered by the
// main GroupHashMap tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/group_hash_map.hpp"
#include "support/temp_path.hpp"

namespace gh {
namespace {

TEST(MapOptions, TinyInitialCellsAreRoundedUp) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1});
  EXPECT_GE(map.capacity(), 16u);
  map.put(1, 1);
  EXPECT_EQ(*map.get(1), 1u);
}

TEST(MapOptions, NonPowerOfTwoCellsRoundUp) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1000});
  EXPECT_EQ(map.capacity(), 1024u);
}

TEST(MapOptions, GroupSizeClampsToLevelSize) {
  // 32 total cells => 16 per level; a group size of 256 must clamp.
  auto map = GroupHashMap::create_in_memory({.initial_cells = 32, .group_size = 256});
  for (u64 k = 1; k <= 20; ++k) map.put(k, k);  // forces collisions + expansion
  for (u64 k = 1; k <= 20; ++k) EXPECT_EQ(*map.get(k), k);
}

TEST(MapOptions, CustomSeedChangesPlacementNotSemantics) {
  auto a = GroupHashMap::create_in_memory({.initial_cells = 1024, .hash_seed = 111});
  auto b = GroupHashMap::create_in_memory({.initial_cells = 1024, .hash_seed = 222});
  for (u64 k = 1; k <= 100; ++k) {
    a.put(k, k * 2);
    b.put(k, k * 2);
  }
  for (u64 k = 1; k <= 100; ++k) {
    EXPECT_EQ(*a.get(k), k * 2);
    EXPECT_EQ(*b.get(k), k * 2);
  }
}

TEST(MapOptions, EmulatedLatencyIsApplied) {
  auto slow = GroupHashMap::create_in_memory(
      {.initial_cells = 1024, .flush_latency_ns = 300});
  slow.put(1, 1);
  EXPECT_GT(slow.snapshot().persist.delay_ns, 0u);

  auto fast = GroupHashMap::create_in_memory({.initial_cells = 1024});
  fast.put(1, 1);
  EXPECT_EQ(fast.snapshot().persist.delay_ns, 0u);
}

TEST(MapRmw, IncrementCreatesAndAccumulates) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1024});
  EXPECT_EQ(map.increment(7), 1u);        // absent -> created with delta
  EXPECT_EQ(map.increment(7), 2u);
  EXPECT_EQ(map.increment(7, 10), 12u);
  EXPECT_EQ(*map.get(7), 12u);
  EXPECT_EQ(map.size(), 1u);
  // Works across expansion too.
  auto tiny = GroupHashMap::create_in_memory({.initial_cells = 16});
  for (u64 k = 1; k <= 500; ++k) tiny.increment(k, k);
  for (u64 k = 1; k <= 500; ++k) EXPECT_EQ(*tiny.get(k), k);
}

TEST(MapRmw, GetBatchMatchesScalarGet) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 4096});
  for (u64 k = 1; k <= 100; ++k) map.put(k, k * 3);
  std::vector<u64> keys;
  for (u64 k = 1; k <= 150; ++k) keys.push_back(k);  // 101..150 miss
  std::vector<std::optional<u64>> out(keys.size());
  map.get_batch(keys, out);
  for (usize i = 0; i < keys.size(); ++i) EXPECT_EQ(out[i], map.get(keys[i]));
}

TEST(MapLifecycle, CloseIsIdempotent) {
  const std::string path = test::temp_path("gh_close_twice.gh");
  std::filesystem::remove(path);
  auto map = GroupHashMap::create(path, {.initial_cells = 64});
  map.put(1, 1);
  map.close();
  map.close();  // second close is a no-op
  std::filesystem::remove(path);
}

TEST(MapLifecycle, RecoverNowBumpsMetrics) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 256});
  map.put(1, 1);
  EXPECT_EQ(map.snapshot().lifecycle.recoveries, 0u);
  const auto report = map.recover_now();
  EXPECT_EQ(report.recovered_count, 1u);
  EXPECT_EQ(map.snapshot().lifecycle.recoveries, 1u);
  EXPECT_EQ(*map.get(1), 1u);
}

TEST(MapLifecycle, ManyExpansionsFromMinimumSize) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 16, .group_size = 4});
  for (u64 k = 1; k <= 5000; ++k) map.put(k, k ^ 0xabc);
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_GE(map.snapshot().lifecycle.expansions, 5u);
  for (u64 k = 1; k <= 5000; ++k) {
    ASSERT_TRUE(map.get(k).has_value()) << k;
    EXPECT_EQ(*map.get(k), k ^ 0xabc);
  }
}

TEST(MapLifecycle, EraseDuringExpansionHistoryStaysConsistent) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 32});
  for (u64 round = 0; round < 10; ++round) {
    for (u64 k = 1; k <= 200; ++k) map.put(round << 32 | k, k);
    for (u64 k = 1; k <= 200; k += 2) EXPECT_TRUE(map.erase(round << 32 | k));
  }
  u64 expected = 0;
  for (u64 round = 0; round < 10; ++round) {
    for (u64 k = 2; k <= 200; k += 2) {
      ++expected;
      ASSERT_TRUE(map.get(round << 32 | k).has_value());
    }
  }
  EXPECT_EQ(map.size(), expected);
}

}  // namespace
}  // namespace gh
