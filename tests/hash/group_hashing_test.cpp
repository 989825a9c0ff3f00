#include "hash/group_hashing.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/cells.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

using Table16 = GroupHashTable<Cell16, nvm::DirectPM>;
using Table32 = GroupHashTable<Cell32, nvm::DirectPM>;

class GroupHashingTest : public ::testing::Test, public test::TableFixture<Table16> {};

TEST_F(GroupHashingTest, EmptyTableFindsNothing) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  EXPECT_EQ(table().count(), 0u);
  EXPECT_EQ(table().capacity(), 512u);
  EXPECT_FALSE(table().find(1).has_value());
  EXPECT_FALSE(table().erase(1));
}

TEST_F(GroupHashingTest, InsertFindRoundTrip) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  EXPECT_TRUE(table().insert(42, 4200));
  EXPECT_EQ(table().count(), 1u);
  const auto v = table().find(42);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4200u);
}

TEST_F(GroupHashingTest, EraseRemovesItem) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(42, 1);
  EXPECT_TRUE(table().erase(42));
  EXPECT_EQ(table().count(), 0u);
  EXPECT_FALSE(table().find(42).has_value());
  EXPECT_FALSE(table().erase(42));
}

TEST_F(GroupHashingTest, UpdateChangesValueInPlace) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(5, 50);
  EXPECT_TRUE(table().update(5, 51));
  EXPECT_EQ(*table().find(5), 51u);
  EXPECT_EQ(table().count(), 1u);
  EXPECT_FALSE(table().update(6, 60));  // absent key
}

// Keys that spread exactly `per_slot` items onto each of the
// `level_cells` level-1 positions of `table` — collision behaviour then
// becomes deterministic regardless of the hash function.
std::vector<u64> slot_balanced_keys(const Table16& table, u64 level_cells, int per_slot) {
  const SeededHash h(table.seed());
  std::vector<int> filled(level_cells, 0);
  std::vector<u64> keys;
  for (u64 k = 1; keys.size() < level_cells * per_slot; ++k) {
    const u64 s = h(k) & (level_cells - 1);
    if (filled[s] < per_slot) {
      filled[s]++;
      keys.push_back(k);
    }
  }
  return keys;
}

TEST_F(GroupHashingTest, CollisionsOverflowIntoMatchedGroup) {
  // Tiny table, one group per level: every collision lands in level 2.
  init(Table16::Params{.level_cells = 8, .group_size = 8});
  // Two keys per level-1 slot: 8 land in level 1, 8 overflow into the
  // shared level-2 group — 16 inserts must all succeed.
  const auto keys = slot_balanced_keys(table(), 8, 2);
  for (const u64 k : keys) ASSERT_TRUE(table().insert(k, k * 10)) << "insert " << k;
  EXPECT_EQ(table().count(), 16u);
  for (const u64 k : keys) {
    ASSERT_TRUE(table().find(k).has_value()) << k;
    EXPECT_EQ(*table().find(k), k * 10);
  }
  EXPECT_GT(table().stats().level2_probes, 0u);
}

TEST_F(GroupHashingTest, InsertFailsOnlyWhenGroupIsFull) {
  init(Table16::Params{.level_cells = 8, .group_size = 8});
  const auto keys = slot_balanced_keys(table(), 8, 2);
  for (const u64 k : keys) ASSERT_TRUE(table().insert(k, k));
  // Table is completely full: the next insert must fail.
  EXPECT_FALSE(table().insert(1000001, 0));
  EXPECT_EQ(table().stats().insert_failures, 1u);
  EXPECT_EQ(table().count(), 16u);
}

TEST_F(GroupHashingTest, FullGroupDoesNotSpillIntoNeighbourGroups) {
  // Two groups: fill group of index g completely, then show an item
  // hashed to g fails even though the other group has space.
  init(Table16::Params{.level_cells = 16, .group_size = 8});
  const SeededHash h(table().seed());
  // Collect keys that hash into group 0 (level-1 index 0..7).
  std::vector<u64> group0_keys;
  for (u64 k = 1; group0_keys.size() < 20 && k < 100000; ++k) {
    if ((h(k) & 15) < 8) group0_keys.push_back(k);
  }
  ASSERT_GE(group0_keys.size(), 17u);
  usize inserted = 0;
  for (const u64 k : group0_keys) {
    if (!table().insert(k, 1)) break;
    ++inserted;
  }
  // Group 0 offers at most 8 level-1 cells + 8 shared level-2 cells.
  EXPECT_LE(inserted, 16u);
  EXPECT_LT(table().count(), table().capacity());  // other group still empty
}

TEST_F(GroupHashingTest, ManyKeysAgainstOracle) {
  init(Table16::Params{.level_cells = 4096, .group_size = 64});
  std::unordered_map<u64, u64> oracle;
  Xoshiro256 rng(7);
  // Fill to ~60% then do mixed ops.
  while (table().count() < 4900) {
    const u64 k = rng.next_below(1ull << 40) + 1;
    if (oracle.count(k)) continue;
    if (!table().insert(k, k * 3)) break;
    oracle[k] = k * 3;
  }
  ASSERT_GT(oracle.size(), 4000u);
  for (const auto& [k, v] : oracle) {
    const auto found = table().find(k);
    ASSERT_TRUE(found.has_value()) << k;
    EXPECT_EQ(*found, v);
  }
  // Delete half, verify the rest still findable and deleted ones gone.
  usize i = 0;
  std::vector<u64> deleted;
  for (const auto& [k, v] : oracle) {
    if (++i % 2 == 0) {
      ASSERT_TRUE(table().erase(k));
      deleted.push_back(k);
    }
  }
  for (const u64 k : deleted) {
    oracle.erase(k);
    EXPECT_FALSE(table().find(k).has_value());
  }
  for (const auto& [k, v] : oracle) EXPECT_EQ(*table().find(k), v);
  EXPECT_EQ(table().count(), oracle.size());
}

TEST_F(GroupHashingTest, DeleteThenReinsertReusesCells) {
  init(Table16::Params{.level_cells = 8, .group_size = 8});
  const auto keys = slot_balanced_keys(table(), 8, 2);
  for (const u64 k : keys) ASSERT_TRUE(table().insert(k, k));
  for (const u64 k : keys) ASSERT_TRUE(table().erase(k));
  EXPECT_EQ(table().count(), 0u);
  // The same (slot-balanced) keys must all fit again in the freed cells.
  for (const u64 k : keys) ASSERT_TRUE(table().insert(k, k + 1));
  EXPECT_EQ(table().count(), 16u);
  for (const u64 k : keys) EXPECT_EQ(*table().find(k), k + 1);
}

TEST_F(GroupHashingTest, ClearGroupZeroesBothLevelsWithOneFlushPerLine) {
  init(Table16::Params{.level_cells = 64, .group_size = 16, .group_crc = true});
  for (u64 k = 1; k <= 200; ++k) table().insert(test::k64(k), k);
  constexpr u64 g = 1;
  u64 occupied = 0;
  table().for_each_in_group(g, [&](u64, u64) { occupied++; });
  ASSERT_GT(occupied, 16u) << "both levels of the group should hold keys";
  const u64 before = table().count();

  pm().stats().clear();
  EXPECT_EQ(table().clear_group(g), occupied);
  // Each phase (commit clears, payload wipes) flushes a touched line
  // once: 16 cells x 16 bytes = 4 lines per level; plus the two checksum
  // words and the count.
  EXPECT_LE(pm().stats().lines_flushed, 2u * 2 * 4 + 3);
  EXPECT_EQ(pm().stats().fences, 4u) << "two phases, the checksum words, the count";

  for (u64 i = g * 16; i < (g + 1) * 16; ++i) {
    for (const Cell16* c : {&table().level1_cell(i), &table().level2_cell(i)}) {
      EXPECT_EQ(c->word0, 0u) << i;
      EXPECT_EQ(c->value, 0u) << i;
    }
  }
  EXPECT_EQ(table().count(), before - occupied);
  EXPECT_TRUE(table().verify_tags());
  EXPECT_TRUE(table().verify_group_checksum(0, g));
  EXPECT_TRUE(table().verify_group_checksum(1, g));
  EXPECT_EQ(table().clear_group(g), 0u) << "an empty group has nothing to clear";
}

TEST_F(GroupHashingTest, CountPersistedPerOperation) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  pm().stats().clear();
  table().insert(1, 2);
  // Insert protocol: value flush+fence, commit flush+fence, count
  // flush+fence = 3 of each, however they are grouped into persist() calls.
  EXPECT_EQ(pm().stats().fences, 3u);
  EXPECT_EQ(pm().stats().lines_flushed, 3u);
  EXPECT_EQ(pm().stats().atomic_stores, 2u);  // commit word + count
  pm().stats().clear();
  table().erase(1);
  EXPECT_EQ(pm().stats().fences, 3u);
  EXPECT_EQ(pm().stats().lines_flushed, 3u);
}

TEST_F(GroupHashingTest, NoExtraWritesOnQuery) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(1, 2);
  pm().stats().clear();
  (void)table().find(1);
  (void)table().find(999);  // miss scans the group
  EXPECT_EQ(pm().stats().stores, 0u);
  EXPECT_EQ(pm().stats().persist_calls, 0u);
}

TEST_F(GroupHashingTest, RecoverRecomputesCount) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  for (u64 k = 1; k <= 100; ++k) table().insert(k, k);
  const auto report = table().recover();
  EXPECT_EQ(report.recovered_count, 100u);
  EXPECT_EQ(report.cells_scanned, 512u);
  EXPECT_EQ(table().count(), 100u);
}

TEST_F(GroupHashingTest, RecoverScrubsTornPayloads) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(1, 11);
  // Forge a torn insert directly in an empty cell: value bytes present,
  // commit word clear — what a crash between the payload persist and the
  // commit-word persist leaves behind (white-box access to the layout:
  // cells start right after the 64-byte header).
  auto* cells = reinterpret_cast<Cell16*>(region_bytes().data() + 64);
  usize forged = 0;
  for (usize i = 0; i < 512 && forged < 3; ++i) {
    if (!cells[i].occupied() && !cells[i].payload_dirty()) {
      cells[i].value = 0xdeadbeefull + i;
      ++forged;
    }
  }
  ASSERT_EQ(forged, 3u);
  const auto report = table().recover();
  EXPECT_EQ(report.cells_scrubbed, 3u);
  EXPECT_EQ(report.recovered_count, 1u);
  for (usize i = 0; i < 512; ++i) {
    if (!cells[i].occupied()) {
      EXPECT_FALSE(cells[i].payload_dirty()) << i;
    }
  }
  EXPECT_EQ(*table().find(1), 11u);
}

TEST_F(GroupHashingTest, AttachSeesExistingData) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(7, 70);
  Table16 reattached = Table16::attach(pm(), region_bytes());
  EXPECT_EQ(reattached.count(), 1u);
  EXPECT_EQ(*reattached.find(7), 70u);
  EXPECT_EQ(reattached.group_size(), 16u);
}

TEST_F(GroupHashingTest, ForEachVisitsExactlyOccupiedCells) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  std::unordered_map<u64, u64> expected;
  for (u64 k = 1; k <= 50; ++k) {
    table().insert(k, k * 7);
    expected[k] = k * 7;
  }
  table().erase(25);
  expected.erase(25);
  std::unordered_map<u64, u64> seen;
  table().for_each([&](u64 k, u64 v) { seen[k] = v; });
  EXPECT_EQ(seen, expected);
}

TEST_F(GroupHashingTest, FindBatchMatchesScalarFind) {
  init(Table16::Params{.level_cells = 4096, .group_size = 64});
  Xoshiro256 rng(21);
  std::vector<u64> present;
  while (table().count() < 3000) {
    const u64 k = rng.next_below(1ull << 40) + 1;
    if (table().insert(k, k * 7)) present.push_back(k);
  }
  // Mixed batch: hits and misses interleaved, larger than the prefetch
  // window and with a non-multiple-of-window tail.
  std::vector<u64> keys;
  for (usize i = 0; i < 100; ++i) {
    keys.push_back(present[rng.next_below(present.size())]);
    keys.push_back((1ull << 45) + i);  // certain miss
  }
  keys.push_back(present[0]);  // odd-sized tail
  std::vector<std::optional<u64>> out(keys.size());
  table().find_batch(keys, out);
  for (usize i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], table().find(keys[i])) << i;
  }
}

TEST_F(GroupHashingTest, FindBatchEmptyAndSingle) {
  init(Table16::Params{.level_cells = 256, .group_size = 16});
  table().insert(5, 50);
  std::vector<std::optional<u64>> out(1);
  table().find_batch(std::span<const u64>{}, out);  // empty batch is a no-op
  const u64 one = 5;
  table().find_batch(std::span<const u64>(&one, 1), out);
  EXPECT_EQ(out[0], std::optional<u64>(50));
}

TEST(GroupHashingPrefetch, EveryLockedProbePrefetchesItsCellAndTagLines) {
  // A single-key probe prefetches its level-1 tag byte, its level-1 cell
  // and its level-2 group's tag lines, at most four: 16 tags fit one
  // line, 256 fill four, 2048 are capped.
  for (const auto& [group, per_probe] : {std::pair<u32, u64>{16, 3}, {256, 6}, {2048, 6}}) {
    test::TableFixture<Table16> fix;
    auto& table = fix.init(Table16::Params{.level_cells = 4096, .group_size = group});
    const auto issued = [&] { return table.stats().prefetches_issued.load(); };
    u64 before = issued();
    ASSERT_TRUE(table.insert(7, 70));  // a put window of one key
    EXPECT_EQ(issued() - before, per_probe) << group;
    before = issued();
    EXPECT_EQ(table.find(7), std::optional<u64>(70));
    EXPECT_EQ(issued() - before, per_probe) << group;
    before = issued();
    EXPECT_TRUE(table.update(7, 71));  // find_cell
    EXPECT_EQ(issued() - before, per_probe) << group;
    // find_batch (staged): level 1 answers key 7, so each key costs only
    // its level-1 tag byte and cell, across windows and a tail.
    const std::vector<u64> keys(37, 7);
    std::vector<std::optional<u64>> out(keys.size());
    before = issued();
    table.find_batch(keys, out);
    EXPECT_EQ(issued() - before, keys.size() * 2) << group;
    // A put window prefetches for each of its keys, once.
    std::vector<u64> fresh(40);
    for (u64 i = 0; i < fresh.size(); ++i) fresh[i] = 100 + i;
    before = issued();
    ASSERT_EQ(table.upsert_batch(fresh, fresh), fresh.size());
    EXPECT_EQ(issued() - before, fresh.size() * per_probe) << group;
  }
}

TEST(GroupHashingCountMode, RecoveryOnlySavesFlushesButStaysExact) {
  test::TableFixture<Table16> eager_fix, lazy_fix;
  auto& eager = eager_fix.init(Table16::Params{.level_cells = 512, .group_size = 32});
  auto& lazy = lazy_fix.init(Table16::Params{.level_cells = 512,
                                             .group_size = 32,
                                             .count_mode = CountMode::kRecoveryOnly});
  for (u64 k = 1; k <= 200; ++k) {
    ASSERT_TRUE(eager.insert(k, k));
    ASSERT_TRUE(lazy.insert(k, k));
  }
  for (u64 k = 1; k <= 50; ++k) {
    ASSERT_TRUE(eager.erase(k));
    ASSERT_TRUE(lazy.erase(k));
  }
  // Logical counts agree live...
  EXPECT_EQ(eager.count(), 150u);
  EXPECT_EQ(lazy.count(), 150u);
  // ...but the lazy mode saved one flush per mutation (3 vs 2 persists).
  EXPECT_GT(eager_fix.pm().stats().persist_calls, lazy_fix.pm().stats().persist_calls);
  const u64 saved = eager_fix.pm().stats().persist_calls -
                    lazy_fix.pm().stats().persist_calls;
  EXPECT_EQ(saved, 250u);  // one per mutation (200 inserts + 50 erases)
  // Recovery recomputes the exact count in both modes.
  EXPECT_EQ(eager.recover().recovered_count, 150u);
  EXPECT_EQ(lazy.recover().recovered_count, 150u);
  EXPECT_EQ(lazy.count(), 150u);
}

TEST(GroupHashingWide, Key128RoundTrip) {
  test::TableFixture<Table32> fix;
  auto& t = fix.init(Table32::Params{.level_cells = 256, .group_size = 16});
  const Key128 a{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const Key128 b{a.lo, a.hi + 1};
  EXPECT_TRUE(t.insert(a, 1));
  EXPECT_TRUE(t.insert(b, 2));
  EXPECT_EQ(*t.find(a), 1u);
  EXPECT_EQ(*t.find(b), 2u);
  EXPECT_TRUE(t.erase(a));
  EXPECT_FALSE(t.find(a).has_value());
  EXPECT_EQ(*t.find(b), 2u);
}

TEST(GroupHashingParams, RequiredBytesMatchesLayout) {
  Table16::Params p{.level_cells = 1024, .group_size = 256};
  EXPECT_EQ(Table16::required_bytes(p), 64u + 2 * 1024 * 16);
  Table32::Params p32{.level_cells = 1024, .group_size = 256};
  EXPECT_EQ(Table32::required_bytes(p32), 64u + 2 * 1024 * 32);
}

TEST(GroupHashingParams, RejectsBadGeometry) {
  test::TableFixture<Table16> fix;
  EXPECT_DEATH(fix.init(Table16::Params{.level_cells = 100, .group_size = 10}),
               "power of two");
  test::TableFixture<Table16> fix2;
  EXPECT_DEATH(fix2.init(Table16::Params{.level_cells = 64, .group_size = 48}),
               "divide");
}

}  // namespace
}  // namespace gh::hash
