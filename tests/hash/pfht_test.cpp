#include "hash/pfht.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "hash/cells.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

using Table = PfhtTable<Cell16, nvm::DirectPM>;

class PfhtTest : public ::testing::Test, public test::TableFixture<Table> {};

TEST_F(PfhtTest, InsertFindEraseRoundTrip) {
  init(Table::Params{.cells = 256});
  EXPECT_TRUE(table().insert(10, 100));
  EXPECT_EQ(*table().find(10), 100u);
  EXPECT_TRUE(table().erase(10));
  EXPECT_FALSE(table().find(10).has_value());
}

TEST_F(PfhtTest, StashSizedAtThreePercent) {
  EXPECT_EQ(Table::stash_cells_for(10000), 300u);
  EXPECT_EQ(Table::stash_cells_for(10), 1u);  // floor, but at least 1
  init(Table::Params{.cells = 1024});
  EXPECT_EQ(table().capacity(), 1024u + 30u);
}

TEST_F(PfhtTest, BucketOverflowGoesToAlternateBucket) {
  init(Table::Params{.cells = 64});  // 16 buckets
  const SeededHash h1(kDefaultSeed1);
  // Five keys whose h1-bucket coincides: bucket holds 4, the fifth must
  // land in its h2 bucket (or displace) and stay findable.
  const u64 target = h1(1) & 15;
  std::vector<u64> keys{1};
  for (u64 k = 2; keys.size() < 5; ++k) {
    if ((h1(k) & 15) == target) keys.push_back(k);
  }
  for (const u64 k : keys) ASSERT_TRUE(table().insert(k, k));
  for (const u64 k : keys) EXPECT_EQ(*table().find(k), k);
}

TEST_F(PfhtTest, DisplacementMovesAtMostOneItem) {
  init(Table::Params{.cells = 1024});
  Xoshiro256 rng(5);
  // Fill to a load where displacements happen.
  u64 inserted = 0;
  while (table().load_factor() < 0.70) {
    const u64 k = rng.next_below(1ull << 40) + 1;
    if (!table().insert(k, k)) break;
    ++inserted;
  }
  // Displacements occurred but never cascaded: by construction the
  // algorithm moves at most one item per insert, so displacements cannot
  // exceed inserts.
  EXPECT_GT(table().stats().displacements, 0u);
  EXPECT_LE(table().stats().displacements, inserted);
}

TEST_F(PfhtTest, StashAbsorbsPathologicalCollisions) {
  init(Table::Params{.cells = 64});  // 16 buckets, stash of 1-2 cells
  const SeededHash h1(kDefaultSeed1);
  const SeededHash h2(kDefaultSeed2);
  // Keys with BOTH buckets equal to each other collide hopelessly after
  // 8 slots (b1 bucket + b2 bucket); the 9th must use the stash.
  const u64 b1 = h1(1) & 15, b2 = h2(1) & 15;
  std::vector<u64> keys{1};
  for (u64 k = 2; keys.size() < 9 && k < 5'000'000; ++k) {
    if ((h1(k) & 15) == b1 && (h2(k) & 15) == b2) keys.push_back(k);
  }
  if (keys.size() < 9) GTEST_SKIP() << "not enough doubly-colliding keys in range";
  usize ok = 0;
  for (const u64 k : keys) ok += table().insert(k, k) ? 1 : 0;
  EXPECT_GE(ok, 8u);
  for (usize i = 0; i < ok; ++i) EXPECT_EQ(*table().find(keys[i]), keys[i]);
  if (ok == 9) {
    EXPECT_GT(table().stats().stash_probes, 0u);
  }
}

TEST_F(PfhtTest, OracleComparisonWithChurn) {
  init(Table::Params{.cells = 2048});
  std::unordered_map<u64, u64> oracle;
  Xoshiro256 rng(8);
  std::vector<u64> live;
  for (int step = 0; step < 6000; ++step) {
    const double r = rng.next_double();
    if (r < 0.5 && oracle.size() < 1200) {
      const u64 k = rng.next_below(1ull << 30) + 1;
      if (!oracle.count(k) && table().insert(k, k ^ 0xabcdef)) {
        oracle[k] = k ^ 0xabcdef;
        live.push_back(k);
      }
    } else if (!live.empty()) {
      const usize idx = rng.next_below(live.size());
      const u64 k = live[idx];
      if (r < 0.8) {
        EXPECT_EQ(*table().find(k), oracle[k]);
      } else {
        EXPECT_TRUE(table().erase(k));
        oracle.erase(k);
        live[idx] = live.back();
        live.pop_back();
      }
    }
  }
  EXPECT_EQ(table().count(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(table().find(k).has_value()) << k;
    EXPECT_EQ(*table().find(k), v);
  }
}

TEST_F(PfhtTest, SpaceUtilizationBeatsGroupHashing) {
  // Sanity for Fig. 7's ordering: PFHT sustains > 82% before first failure.
  init(Table::Params{.cells = 4096});
  Xoshiro256 rng(11);
  u64 inserted = 0;
  for (;;) {
    const u64 k = rng.next() | 1;  // avoid zero; dups vanishingly unlikely
    if (!table().insert(k & Cell16::kMaxKey, 1)) break;
    ++inserted;
  }
  EXPECT_GT(table().load_factor(), 0.82);
}

TEST_F(PfhtTest, RecoverCountsStashToo) {
  init(Table::Params{.cells = 256});
  for (u64 k = 1; k <= 100; ++k) table().insert(k, k);
  const auto report = table().recover();
  EXPECT_EQ(report.recovered_count, 100u);
  EXPECT_EQ(report.cells_scanned, table().capacity());
}

}  // namespace
}  // namespace gh::hash
