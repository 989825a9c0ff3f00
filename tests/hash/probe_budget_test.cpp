// Probe budget: exact, host-independent counts of what a batched lookup
// does. find_batch's staged kernel must do the work of a loop of find()
// on a twin table — the same queries, hits, key compares, tag skips,
// false positives and level-2 probes — and issue exactly 2 prefetches per
// key plus, for each key level 1 does not answer, its level-2 tag lines
// and one per candidate cell (hash/staged_probe.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "hash/test_support.hpp"
#include "nvm/direct_pm.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

using Table16 = GroupHashTable<Cell16, nvm::DirectPM>;
using Table32 = GroupHashTable<Cell32, nvm::DirectPM>;

u64 random_key(Xoshiro256& rng, u64) { return rng.next_below(u64{1} << 40) + 1; }
Key128 random_key(Xoshiro256& rng, Key128) { return Key128{rng.next(), rng.next()}; }

/// The counters a probe moves, as one comparable row.
std::vector<u64> probe_counters(const TableStats& s) {
  return {s.queries, s.query_hits, s.probes, s.level2_probes,
          s.tag_probes, s.tag_skips, s.tag_false_positives};
}

/// Prefetches find_batch owes `key`: 2 for its level-1 tag byte and cell;
/// when its home cell does not hold it, also its group's tag lines and
/// each cell of the group whose tag byte matches.
template <class Table>
u64 staged_prefetches(const Table& t, const typename Table::key_type& key) {
  const u64 h = SeededHash(t.seed())(key);
  const u64 k = h & (t.level_cells() - 1);
  const u8 tag = tag_of_hash(h);
  if (t.debug_tag(0, k) == tag && t.level1_cell(k).matches(key)) return 2;
  const u32 gs = t.group_size();
  const u64 j = k - k % gs;
  u64 candidates = 0;
  for (u32 i = 0; i < gs; ++i) candidates += t.debug_tag(1, j + i) == tag ? 1 : 0;
  return 2 + std::min<u64>((gs + kCachelineSize - 1) / kCachelineSize, 4) + candidates;
}

template <class Table>
void expect_batch_budget(u32 group_size, u64 seed) {
  using Key = typename Table::key_type;
  const typename Table::Params params{.level_cells = 4096, .group_size = group_size};
  test::TableFixture<Table> batch_fix, loop_fix;
  Table& batch = batch_fix.init(params);
  Table& loop = loop_fix.init(params);
  // Twin tables, filled alike to ~70% (about a third of the keys then sit
  // in level 2).
  Xoshiro256 rng(seed);
  std::vector<Key> queries;
  while (batch.count() < 5700) {
    const Key key = random_key(rng, Key{});
    if (!batch.insert(key, 11)) continue;
    ASSERT_TRUE(loop.insert(key, 11));
    queries.push_back(key);
  }
  for (usize i = 0; i < 2000; ++i) queries.push_back(random_key(rng, Key{}));  // misses
  for (usize i = queries.size(); i > 1; --i) std::swap(queries[i - 1], queries[rng.next_below(i)]);

  u64 want_prefetches = 0;
  for (const Key& key : queries) want_prefetches += staged_prefetches(batch, key);
  const std::vector<u64> batch_before = probe_counters(batch.stats());
  const u64 prefetches_before = batch.stats().prefetches_issued;
  const std::vector<u64> loop_before = probe_counters(loop.stats());
  std::vector<std::optional<u64>> out(queries.size());
  batch.find_batch(queries, out);
  u64 level1_hits = 0;
  for (usize i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(out[i], loop.find(queries[i])) << i;
    level1_hits += staged_prefetches(batch, queries[i]) == 2 ? 1 : 0;
  }

  std::vector<u64> batch_delta = probe_counters(batch.stats());
  std::vector<u64> loop_delta = probe_counters(loop.stats());
  for (usize c = 0; c < batch_delta.size(); ++c) {
    batch_delta[c] -= batch_before[c];
    loop_delta[c] -= loop_before[c];
  }
  EXPECT_EQ(batch_delta, loop_delta);
  EXPECT_EQ(batch.stats().prefetches_issued - prefetches_before, want_prefetches);
  // The batch mixes level-1 hits, level-2 hits, misses and false positives.
  const u64 hits = batch_delta[1];
  EXPECT_GT(level1_hits, 0u);
  EXPECT_GT(hits, level1_hits);
  EXPECT_GT(queries.size(), hits);
  EXPECT_GT(batch_delta[6], 0u);
}

TEST(ProbeBudget, FindBatchMatchesFindLoopCell16Group16) {
  expect_batch_budget<Table16>(16, 1);
}
TEST(ProbeBudget, FindBatchMatchesFindLoopCell16Group256) {
  expect_batch_budget<Table16>(256, 2);
}
TEST(ProbeBudget, FindBatchMatchesFindLoopCell32Group16) {
  expect_batch_budget<Table32>(16, 3);
}
TEST(ProbeBudget, FindBatchMatchesFindLoopCell32Group256) {
  expect_batch_budget<Table32>(256, 4);
}

// The old table of a migration is probed only for the target's misses,
// and counted as a batch of those keys.
TEST(ProbeBudget, FindBatchMissesProbesOnlyTheUnanswered) {
  test::TableFixture<Table16> fix;
  Table16& t = fix.init(Table16::Params{.level_cells = 1024, .group_size = 16});
  for (u64 k = 1; k <= 100; ++k) ASSERT_TRUE(t.insert(k, k * 3));
  std::vector<u64> keys;
  std::vector<std::optional<u64>> out;
  for (u64 k = 1; k <= 70; ++k) {
    keys.push_back(k);
    out.push_back(k % 2 == 0 ? std::optional<u64>(7) : std::nullopt);  // already answered
  }
  const u64 queries = t.stats().queries;
  const u64 batch_keys = t.stats().batch_keys;
  t.find_batch_misses(keys, out);
  EXPECT_EQ(t.stats().queries - queries, 35u);
  EXPECT_EQ(t.stats().batch_keys - batch_keys, 35u);
  for (u64 k = 1; k <= 70; ++k) {
    EXPECT_EQ(out[k - 1], std::optional<u64>(k % 2 == 0 ? 7 : k * 3)) << k;
  }
}

}  // namespace
}  // namespace gh::hash
