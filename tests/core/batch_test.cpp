// Batched multi-op API — the PR-6 test gate.
//
// Four claims are under test, each with its own section:
//
//   1. Differential equivalence: every *_batch entry point produces
//      byte-identical results to the scalar loop it replaces, across
//      random op mixes, duplicate keys inside one batch, batch sizes
//      1..257, auto-expansion, fixed-capacity exhaustion and string-map
//      compaction. The oracle is a second map driven scalar plus a
//      std::unordered_map.
//   2. SIMD/scalar equivalence: forcing the tag-probe dispatch to every
//      supported level (hash::force_simd_level) changes nothing
//      observable. Under GH_NO_SIMD only the scalar level exists and the
//      same assertions run.
//   3. Observability: get_batch issues software prefetches on EVERY
//      build (including GH_NO_SIMD — prefetching is independent of the
//      sweep instruction set), visible as stats counters.
//   4. Tag coherence: the DRAM fingerprint array matches a full cell
//      rescan (GroupHashTable::verify_tags) after every mutation phase,
//      expansion, scrub, recovery — and after reopening a crash image
//      taken at EVERY persistence event of a mixed scalar+batched
//      workload, under random cacheline eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/concurrent_map.hpp"
#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "hash/any_table.hpp"
#include "hash/cells.hpp"
#include "hash/tag_probe.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

/// Cell16 keys: bit 63 must be clear (bitmap bit), zero is reserved.
u64 make_key(Xoshiro256& rng) { return (rng.next() >> 1) | 1; }

// ---------------------------------------------------------------------------
// Deterministic batch semantics
// ---------------------------------------------------------------------------

TEST(Batch, GetBatchMatchesScalarGet) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  Xoshiro256 rng(1);
  std::vector<u64> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(make_key(rng));
    map.put(keys.back(), keys.back() ^ 0xabcd);
  }
  // Mix of hits and misses, shuffled.
  std::vector<u64> probes = keys;
  for (int i = 0; i < 1000; ++i) probes.push_back(make_key(rng));
  for (usize i = probes.size() - 1; i > 0; --i) {
    std::swap(probes[i], probes[rng.next_below(i + 1)]);
  }
  std::vector<std::optional<u64>> out(probes.size());
  map.get_batch(probes, out);
  for (usize i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], map.get(probes[i])) << "i=" << i;
  }
}

TEST(Batch, PutBatchDuplicateKeysLastWins) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 10});
  // 100 writes to 3 keys in one batch — crosses the 32-key fence window,
  // so dups hit both the staged-in-window path and the committed-in-an-
  // earlier-window (update) path.
  std::vector<u64> keys, values;
  for (u64 i = 0; i < 100; ++i) {
    keys.push_back(1 + (i % 3));
    values.push_back(1000 + i);
  }
  map.put_batch(keys, values);
  EXPECT_EQ(map.size(), 3u);
  // Last write per key: i=99 -> key 1, i=98 -> key 3, i=97 -> key 2.
  EXPECT_EQ(map.get(1), std::optional<u64>(1000 + 99));
  EXPECT_EQ(map.get(2), std::optional<u64>(1000 + 97));
  EXPECT_EQ(map.get(3), std::optional<u64>(1000 + 98));
  EXPECT_TRUE(map.raw_table().verify_tags());
}

TEST(Batch, EraseBatchDuplicatesBehaveSequentially) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 10});
  map.put(10, 1);
  map.put(20, 2);
  const std::vector<u64> keys{10, 10, 30, 20, 20};
  std::vector<u8> hits(keys.size(), 0xee);
  map.erase_batch(keys, hits);
  EXPECT_EQ(hits, (std::vector<u8>{1, 0, 0, 1, 0}));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.raw_table().verify_tags());
}

TEST(Batch, EmptyAndSingletonBatches) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 10});
  map.put_batch({}, {});
  map.get_batch({}, {});
  map.erase_batch({});
  EXPECT_EQ(map.size(), 0u);
  const u64 k = 42;
  const u64 v = 7;
  map.put_batch(std::span(&k, 1), std::span(&v, 1));
  std::optional<u64> out;
  map.get_batch(std::span(&k, 1), std::span(&out, 1));
  EXPECT_EQ(out, std::optional<u64>(7));
  u8 hit = 0;
  map.erase_batch(std::span(&k, 1), std::span(&hit, 1));
  EXPECT_EQ(hit, 1);
  EXPECT_EQ(map.size(), 0u);
}

// ---------------------------------------------------------------------------
// Observability: prefetches and batch counters advance on every build
// ---------------------------------------------------------------------------

TEST(Batch, PrefetchAndBatchCountersAdvance) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  Xoshiro256 rng(2);
  std::vector<u64> keys(512);
  for (u64& k : keys) k = make_key(rng);
  std::vector<u64> values(keys.size(), 1);
  map.put_batch(keys, values);

  const auto before = map.snapshot();
  std::vector<std::optional<u64>> out(keys.size());
  map.get_batch(keys, out);
  const auto after = map.snapshot();

  // get_batch prefetches each key's level-1 cell line — at least one per
  // key, MORE with the level-2 tag lines. This must hold under GH_NO_SIMD
  // too: prefetching is the batching win, independent of the sweep ISA.
  EXPECT_GE(after.table.prefetches_issued - before.table.prefetches_issued, keys.size());
  EXPECT_EQ(after.table.batch_ops - before.table.batch_ops, 1u);
  EXPECT_EQ(after.table.batch_keys - before.table.batch_keys, keys.size());

  // Negative lookups drive the tag filter: most cells are skipped without
  // a key compare.
  std::vector<u64> misses(512);
  for (u64& k : misses) k = make_key(rng);
  map.get_batch(misses, out);
  const auto miss_stats = map.snapshot();
  EXPECT_GT(miss_stats.table.tag_skips, after.table.tag_skips);
}

TEST(Batch, ScalarMapOpsAreNotBatchCalls) {
  // Scalar put/increment/erase run the tables' window code one key at a
  // time; they count as ops, never as batch calls.
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  const obs::TableOpSnapshot before = map.snapshot().table;
  map.put(11, 1);                   // new key: one insert
  map.put(11, 2);                   // present key: in-place update
  EXPECT_EQ(map.increment(12), 1u);  // new key: one insert
  EXPECT_EQ(map.increment(12), 2u);  // present key: in-place update
  EXPECT_TRUE(map.erase(11));
  EXPECT_FALSE(map.erase(11));
  const obs::TableOpSnapshot after = map.snapshot().table;
  EXPECT_EQ(after.batch_ops, before.batch_ops);
  EXPECT_EQ(after.batch_keys, before.batch_keys);
  EXPECT_EQ(after.inserts - before.inserts, 2u);
  EXPECT_EQ(after.erases - before.erases, 2u);
  EXPECT_EQ(after.erase_hits - before.erase_hits, 1u);

  // Each *_batch call counts once, with all of its keys.
  const std::vector<u64> keys{21, 22, 23};
  const std::vector<u64> values{1, 2, 3};
  map.put_batch(keys, values);
  map.erase_batch(keys);
  const obs::TableOpSnapshot batched = map.snapshot().table;
  EXPECT_EQ(batched.batch_ops - after.batch_ops, 2u);
  EXPECT_EQ(batched.batch_keys - after.batch_keys, 2 * keys.size());
  EXPECT_EQ(batched.inserts - after.inserts, keys.size());
  EXPECT_EQ(batched.erase_hits - after.erase_hits, keys.size());
}

TEST(Batch, ScalarMapOpsDuringMigrationAreNotBatchCalls) {
  // migrate_groups_per_op = 0 parks the resize: writes route by the
  // migration cursor, all through scalar entry points.
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 64, .group_size = 16, .migrate_groups_per_op = 0});
  u64 next = 1;
  while (!map.migration_active() && next < 10'000) map.put(next, next), ++next;
  ASSERT_TRUE(map.migration_active());
  const obs::TableOpSnapshot before = map.snapshot().table;
  map.put(1, 100);  // lives in the old table: updated there
  map.put(next, next);
  EXPECT_TRUE(map.erase(2));
  EXPECT_FALSE(map.erase(10'001));
  const obs::TableOpSnapshot after = map.snapshot().table;
  ASSERT_TRUE(map.migration_active());
  EXPECT_EQ(after.batch_ops, before.batch_ops);
  EXPECT_EQ(after.batch_keys, before.batch_keys);
  EXPECT_EQ(map.get(1), std::optional<u64>(100));
  EXPECT_EQ(map.get(next), std::optional<u64>(next));
  EXPECT_EQ(map.get(2), std::nullopt);
  EXPECT_EQ(map.size(), next - 1);
}

// ---------------------------------------------------------------------------
// Differential fuzz: batch APIs vs scalar oracle
// ---------------------------------------------------------------------------

class BatchFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(BatchFuzz, MixedOpsMatchScalarOracle) {
  const u64 seed = GetParam();
  // Small groups + small table force level-2 pressure and expansions.
  const MapOptions opts{.initial_cells = 1 << 10, .group_size = 64};
  auto batch_map = GroupHashMap::create_in_memory(opts);
  auto scalar_map = GroupHashMap::create_in_memory(opts);
  std::unordered_map<u64, u64> oracle;

  Xoshiro256 rng(seed);
  std::vector<u64> universe(512);
  for (u64& k : universe) k = make_key(rng);

  for (int round = 0; round < 40; ++round) {
    const usize n = 1 + static_cast<usize>(rng.next_below(257));
    std::vector<u64> keys(n);
    for (u64& k : keys) k = universe[rng.next_below(universe.size())];
    switch (rng.next_below(3)) {
      case 0: {  // put
        std::vector<u64> values(n);
        for (u64& v : values) v = rng.next();
        batch_map.put_batch(keys, values);
        for (usize i = 0; i < n; ++i) {
          scalar_map.put(keys[i], values[i]);
          oracle[keys[i]] = values[i];
        }
        break;
      }
      case 1: {  // get
        std::vector<std::optional<u64>> out(n);
        batch_map.get_batch(keys, out);
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], scalar_map.get(keys[i])) << "round " << round << " i " << i;
          const auto it = oracle.find(keys[i]);
          ASSERT_EQ(out[i], it == oracle.end() ? std::nullopt : std::optional<u64>(it->second));
        }
        break;
      }
      case 2: {  // erase
        std::vector<u8> hits(n, 0xee);
        batch_map.erase_batch(keys, hits);
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i] != 0, scalar_map.erase(keys[i])) << "round " << round << " i " << i;
          ASSERT_EQ(hits[i] != 0, oracle.erase(keys[i]) > 0);
        }
        break;
      }
    }
    ASSERT_EQ(batch_map.size(), scalar_map.size()) << "round " << round;
    ASSERT_EQ(batch_map.size(), oracle.size()) << "round " << round;
  }

  // Full-content comparison and the tag invariant on both maps.
  batch_map.for_each([&](u64 k, u64 v) {
    const auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << k;
    EXPECT_EQ(it->second, v) << k;
  });
  EXPECT_TRUE(batch_map.raw_table().verify_tags());
  EXPECT_TRUE(scalar_map.raw_table().verify_tags());
}

TEST_P(BatchFuzz, FixedCapacityExhaustsAtSamePrefix) {
  const u64 seed = GetParam();
  const MapOptions opts{
      .initial_cells = 256, .group_size = 64, .auto_expand = false};
  auto batch_map = GroupHashMap::create_in_memory(opts);
  auto scalar_map = GroupHashMap::create_in_memory(opts);

  Xoshiro256 rng(seed * 31 + 7);
  bool batch_threw = false;
  bool scalar_threw = false;
  for (int round = 0; round < 64 && !batch_threw; ++round) {
    const usize n = 1 + static_cast<usize>(rng.next_below(64));
    std::vector<u64> keys(n), values(n);
    for (usize i = 0; i < n; ++i) {
      keys[i] = make_key(rng);
      values[i] = rng.next();
    }
    try {
      batch_map.put_batch(keys, values);
    } catch (const std::runtime_error&) {
      batch_threw = true;
    }
    try {
      for (usize i = 0; i < n; ++i) scalar_map.put(keys[i], values[i]);
    } catch (const std::runtime_error&) {
      scalar_threw = true;
    }
    // Strict in-order semantics: both stop at the SAME failing key, so
    // the durable prefixes are identical.
    ASSERT_EQ(batch_threw, scalar_threw) << "round " << round;
    ASSERT_EQ(batch_map.size(), scalar_map.size()) << "round " << round;
  }
  ASSERT_TRUE(batch_threw) << "capacity never exhausted — test ineffective";
  batch_map.for_each([&](u64 k, u64 v) {
    EXPECT_EQ(scalar_map.get(k), std::optional<u64>(v)) << k;
  });
  EXPECT_TRUE(batch_map.raw_table().verify_tags());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz, ::testing::Range<u64>(1, 9));

// ---------------------------------------------------------------------------
// String map: batched ops over the record arena (with compaction)
// ---------------------------------------------------------------------------

TEST(StringBatch, DuplicateKeysAndUpdatesInOneBatch) {
  auto map = PersistentStringMap::create_in_memory({.map = {.initial_cells = 1 << 10}});
  map.put("pre", 1);
  const std::vector<std::string_view> keys{"a", "b", "a", "pre", "a"};
  const std::vector<u64> values{10, 20, 11, 2, 12};
  map.put_batch(keys, values);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.get("a"), std::optional<u64>(12));
  EXPECT_EQ(map.get("b"), std::optional<u64>(20));
  EXPECT_EQ(map.get("pre"), std::optional<u64>(2));

  std::vector<std::optional<u64>> out(4);
  const std::vector<std::string_view> probes{"a", "missing", "b", "pre"};
  map.get_batch(probes, out);
  EXPECT_EQ(out[0], std::optional<u64>(12));
  EXPECT_EQ(out[1], std::nullopt);
  EXPECT_EQ(out[2], std::optional<u64>(20));
  EXPECT_EQ(out[3], std::optional<u64>(2));

  std::vector<u8> hits(3, 0xee);
  map.erase_batch(std::vector<std::string_view>{"a", "a", "b"}, hits);
  EXPECT_EQ(hits, (std::vector<u8>{1, 0, 1}));
  EXPECT_EQ(map.size(), 1u);
}

TEST(StringBatch, CompactingPutBatchIsOneTimedInsert) {
  if (!obs::kEnabled) GTEST_SKIP() << "latency histograms compiled out (GH_OBS_OFF)";
  // A table this small overflows inside the batch; the keys it could not
  // place re-enter the batch's own window loop after each rebuild, so
  // the whole call stays one insert op with one latency sample.
  auto map = PersistentStringMap::create_in_memory(
      {.map = {.initial_cells = 16, .group_size = 4, .latency_sample_shift = 0}});
  std::vector<std::string> storage;
  for (u64 k = 0; k < 200; ++k) storage.push_back("key-" + std::to_string(k));
  const std::vector<std::string_view> keys(storage.begin(), storage.end());
  std::vector<u64> values(keys.size());
  for (usize i = 0; i < values.size(); ++i) values[i] = i + 1;
  map.put_batch(keys, values);
  const obs::Snapshot s = map.snapshot();
  ASSERT_GE(s.lifecycle.compactions, 1u);
  EXPECT_EQ(s.latency.insert.count, 1u);
  EXPECT_EQ(map.size(), keys.size());
  for (usize i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(map.get(keys[i]), std::optional<u64>(values[i])) << keys[i];
  }
}

TEST(StringBatch, ScalarPutAndEraseAreNotBatchCalls) {
  auto map = PersistentStringMap::create_in_memory({.map = {.initial_cells = 1 << 10}});
  const obs::TableOpSnapshot before = map.snapshot().table;
  map.put("a", 1);
  map.put("a", 2);
  EXPECT_TRUE(map.erase("a"));
  EXPECT_FALSE(map.erase("a"));
  const obs::TableOpSnapshot after = map.snapshot().table;
  EXPECT_EQ(after.batch_ops, before.batch_ops);
  EXPECT_EQ(after.batch_keys, before.batch_keys);
  EXPECT_EQ(after.inserts - before.inserts, 1u);
  EXPECT_EQ(after.erases - before.erases, 2u);
  EXPECT_EQ(after.erase_hits - before.erase_hits, 1u);
}

class StringBatchFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(StringBatchFuzz, MixedOpsMatchScalarOracle) {
  // Tiny table + arena so put_batch regularly crosses compactions and
  // growth rebuilds mid-run (the re-apply-unconsumed-records path).
  const StringMapOptions opts{.map = {.initial_cells = 256, .group_size = 64}};
  auto batch_map = PersistentStringMap::create_in_memory(opts);
  auto scalar_map = PersistentStringMap::create_in_memory(opts);

  Xoshiro256 rng(GetParam() * 977 + 3);
  std::vector<std::string> universe;
  for (int i = 0; i < 400; ++i) {
    std::string k = "key-" + std::to_string(i);
    if (i % 17 == 0) k += std::string(40, 'x');  // some long keys
    universe.push_back(std::move(k));
  }

  for (int round = 0; round < 25; ++round) {
    const usize n = 1 + static_cast<usize>(rng.next_below(129));
    std::vector<std::string_view> keys(n);
    for (auto& k : keys) k = universe[rng.next_below(universe.size())];
    switch (rng.next_below(3)) {
      case 0: {
        std::vector<u64> values(n);
        for (u64& v : values) v = rng.next();
        batch_map.put_batch(keys, values);
        for (usize i = 0; i < n; ++i) scalar_map.put(keys[i], values[i]);
        break;
      }
      case 1: {
        std::vector<std::optional<u64>> out(n);
        batch_map.get_batch(keys, out);
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], scalar_map.get(keys[i])) << "round " << round << " i " << i;
        }
        break;
      }
      case 2: {
        std::vector<u8> hits(n, 0xee);
        batch_map.erase_batch(keys, hits);
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i] != 0, scalar_map.erase(keys[i])) << "round " << round << " i " << i;
        }
        break;
      }
    }
    ASSERT_EQ(batch_map.size(), scalar_map.size()) << "round " << round;
  }
  EXPECT_TRUE(batch_map.debug_verify_tags());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringBatchFuzz, ::testing::Range<u64>(1, 5));

// ---------------------------------------------------------------------------
// SIMD dispatch equivalence
// ---------------------------------------------------------------------------

/// Restores the dispatch cap even when an assertion fails mid-test.
struct SimdCapGuard {
  ~SimdCapGuard() { hash::force_simd_level(hash::SimdLevel::kAvx2); }
};

TEST(SimdEquivalence, EveryLevelAgreesOnLookupsAndMutations) {
  SimdCapGuard guard;
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 13, .group_size = 64});
  Xoshiro256 rng(11);
  std::vector<u64> keys(3000), misses(1000);
  for (u64& k : keys) k = make_key(rng);
  for (u64& k : misses) k = make_key(rng);
  for (const u64 k : keys) map.put(k, k * 3);

  // Baseline: the portable scalar sweep.
  hash::force_simd_level(hash::SimdLevel::kScalar);
  ASSERT_EQ(hash::active_simd_level(), hash::SimdLevel::kScalar);
  std::vector<std::optional<u64>> baseline(keys.size()), miss_base(misses.size());
  map.get_batch(keys, baseline);
  map.get_batch(misses, miss_base);
  ASSERT_TRUE(map.raw_table().verify_tags());

  for (const auto level : {hash::SimdLevel::kSse2, hash::SimdLevel::kAvx2}) {
    if (static_cast<int>(level) > static_cast<int>(hash::detected_simd_level())) continue;
    hash::force_simd_level(level);
    ASSERT_EQ(hash::active_simd_level(), level);
    std::vector<std::optional<u64>> out(keys.size());
    map.get_batch(keys, out);
    EXPECT_EQ(out, baseline) << "level " << static_cast<int>(level);
    for (usize i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(map.get(keys[i]), baseline[i]) << "level " << static_cast<int>(level);
    }
    std::vector<std::optional<u64>> mout(misses.size());
    map.get_batch(misses, mout);
    EXPECT_EQ(mout, miss_base) << "level " << static_cast<int>(level);
    EXPECT_TRUE(map.raw_table().verify_tags());
  }

  // Mutate under the scalar sweep, read back under the widest one — the
  // tag array is ISA-independent state.
  hash::force_simd_level(hash::SimdLevel::kScalar);
  for (usize i = 0; i < keys.size(); i += 2) map.erase(keys[i]);
  hash::force_simd_level(hash::SimdLevel::kAvx2);
  for (usize i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.get(keys[i]).has_value(), i % 2 == 1) << i;
  }
  EXPECT_TRUE(map.raw_table().verify_tags());
}

// The in-cell 16-bit tag filter (Cell32's commit word, second stage behind
// the DRAM byte-tag sweep) against a plain scalar reference, at every
// dispatch level the machine supports. Under GH_NO_SIMD only kScalar
// exists and the reference check still gates the portable leg.
TEST(SimdEquivalence, InCellTagFilterMatchesScalarReference) {
  SimdCapGuard guard;
  constexpr u32 kStrideWords = sizeof(hash::Cell32) / sizeof(u64);
  Xoshiro256 rng(29);
  for (int round = 0; round < 200; ++round) {
    // Simulated group: 256 cells; commit words drawn from a tiny alphabet
    // so expect-collisions are common.
    std::vector<u64> words(256 * kStrideWords);
    for (u64& w : words) w = rng.next();
    const u64 expect = hash::Cell32::kOccupiedBit | (rng.next() & 0xffff);
    for (usize c = 0; c < 256; ++c) {
      if (rng.next_below(3) == 0) words[c * kStrideWords] = expect;
    }
    // Random candidate list (sorted unique positions, like a byte-tag sweep
    // output), sized to cross the 4-wide AVX2 and 2-wide SSE2 loops.
    std::vector<u32> cand;
    for (u32 i = 0; i < 256; ++i) {
      if (rng.next_below(4) == 0) cand.push_back(i);
    }
    std::vector<u32> want;
    for (const u32 i : cand) {
      if (words[static_cast<u64>(i) * kStrideWords] == expect) want.push_back(i);
    }
    for (const auto level :
         {hash::SimdLevel::kScalar, hash::SimdLevel::kSse2, hash::SimdLevel::kAvx2}) {
      if (static_cast<int>(level) > static_cast<int>(hash::detected_simd_level())) continue;
      hash::force_simd_level(level);
      std::vector<u32> idxs = cand;
      const u32 kept = hash::filter_in_cell_tags(words.data(), kStrideWords, idxs.data(),
                                                 static_cast<u32>(idxs.size()), expect);
      idxs.resize(kept);
      ASSERT_EQ(idxs, want) << "round " << round << " level " << static_cast<int>(level);
    }
  }
}

// Same shape as EveryLevelAgreesOnLookupsAndMutations but over the string
// map, whose Cell32 probe path runs byte-tag sweep -> in-cell 16-bit tag
// filter -> key compare. A small group and many keys force multi-candidate
// groups so the filter actually rejects.
TEST(SimdEquivalence, StringMapInCellTagEveryLevelAgrees) {
  SimdCapGuard guard;
  auto map = PersistentStringMap::create_in_memory(
      {.map = {.initial_cells = 1 << 12, .group_size = 64}});
  std::vector<std::string> keys, misses;
  for (int i = 0; i < 2000; ++i) keys.push_back("k" + std::to_string(i));
  for (int i = 0; i < 800; ++i) misses.push_back("m" + std::to_string(i));
  for (usize i = 0; i < keys.size(); ++i) map.put(keys[i], i * 7 + 1);

  hash::force_simd_level(hash::SimdLevel::kScalar);
  std::vector<std::optional<u64>> baseline(keys.size()), miss_base(misses.size());
  std::vector<std::string_view> key_views(keys.begin(), keys.end());
  std::vector<std::string_view> miss_views(misses.begin(), misses.end());
  map.get_batch(key_views, baseline);
  map.get_batch(miss_views, miss_base);
  for (usize i = 0; i < keys.size(); ++i) ASSERT_EQ(baseline[i], std::optional<u64>(i * 7 + 1));

  for (const auto level : {hash::SimdLevel::kSse2, hash::SimdLevel::kAvx2}) {
    if (static_cast<int>(level) > static_cast<int>(hash::detected_simd_level())) continue;
    hash::force_simd_level(level);
    std::vector<std::optional<u64>> out(keys.size()), mout(misses.size());
    map.get_batch(key_views, out);
    map.get_batch(miss_views, mout);
    EXPECT_EQ(out, baseline) << "level " << static_cast<int>(level);
    EXPECT_EQ(mout, miss_base) << "level " << static_cast<int>(level);
    for (usize i = 0; i < keys.size(); i += 97) {
      ASSERT_EQ(map.get(keys[i]), baseline[i]) << "level " << static_cast<int>(level);
    }
  }

  // Erase under scalar, verify under the widest available level.
  hash::force_simd_level(hash::SimdLevel::kScalar);
  for (usize i = 0; i < keys.size(); i += 2) ASSERT_TRUE(map.erase(keys[i]));
  hash::force_simd_level(hash::SimdLevel::kAvx2);
  for (usize i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.get(keys[i]).has_value(), i % 2 == 1) << i;
  }
  EXPECT_TRUE(map.debug_verify_tags());
}

// ---------------------------------------------------------------------------
// Tag coherence through the map lifecycle
// ---------------------------------------------------------------------------

TEST(Tags, CoherentThroughOpsExpansionScrubAndRecovery) {
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 256, .group_size = 64, .checksum_groups = true});
  Xoshiro256 rng(17);
  std::vector<u64> keys(2000);
  for (u64& k : keys) k = make_key(rng);

  // Inserts force several expansion rebuilds (256 cells -> thousands).
  const u64 expansions0 = map.snapshot().lifecycle.expansions;
  std::vector<u64> values(keys.size(), 5);
  map.put_batch(keys, values);
  EXPECT_GT(map.snapshot().lifecycle.expansions, expansions0);
  ASSERT_TRUE(map.raw_table().verify_tags()) << "after batched inserts + expansion";

  for (usize i = 0; i < keys.size(); i += 2) map.erase(keys[i]);
  ASSERT_TRUE(map.raw_table().verify_tags()) << "after erases";

  for (usize i = 1; i < keys.size(); i += 2) map.put(keys[i], 6);
  ASSERT_TRUE(map.raw_table().verify_tags()) << "after updates";

  const auto scrubbed = map.scrub();
  EXPECT_EQ(scrubbed.crc_mismatches, 0u);
  ASSERT_TRUE(map.raw_table().verify_tags()) << "after scrub";

  map.recover_now();
  ASSERT_TRUE(map.raw_table().verify_tags()) << "after recovery";
  for (usize i = 1; i < keys.size(); i += 2) {
    ASSERT_EQ(map.get(keys[i]), std::optional<u64>(6));
  }
}

// ---------------------------------------------------------------------------
// AnyTable dispatch: native batch vs the base-class scalar fallback
// ---------------------------------------------------------------------------

class AnyTableBatch : public ::testing::TestWithParam<std::tuple<hash::Scheme, bool>> {};

TEST_P(AnyTableBatch, BatchEntryPointsMatchScalarSemantics) {
  const auto [scheme, wide] = GetParam();
  hash::TableConfig cfg;
  cfg.scheme = scheme;
  cfg.total_cells_log2 = 12;
  cfg.wide_cells = wide;
  nvm::DirectPM pm(nvm::PersistConfig::counting_only());
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(hash::table_required_bytes(cfg));
  auto table = hash::make_table(pm, region.bytes().first(hash::table_required_bytes(cfg)),
                                cfg, /*format=*/true);
  ASSERT_NE(table, nullptr);

  // 600 distinct keys: larger than the adapter's 256-key narrowing chunk,
  // so narrow tables cross chunk boundaries.
  std::vector<Key128> keys;
  std::vector<u64> values;
  for (u64 i = 1; i <= 600; ++i) {
    keys.push_back(Key128{i * 977, wide ? i * 31 : 0});
    values.push_back(i);
  }
  const usize inserted = table->insert_batch(keys, values);
  ASSERT_EQ(inserted, keys.size()) << table->name() << " at ~7% load";
  EXPECT_EQ(table->count(), keys.size());

  std::vector<std::optional<u64>> out(keys.size());
  table->find_batch(keys, out);
  for (usize i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], table->find(keys[i])) << table->name() << " i=" << i;
    ASSERT_EQ(out[i], std::optional<u64>(values[i]));
  }

  // Erase with duplicates: sequential semantics through either path.
  std::vector<Key128> doomed{keys[0], keys[0], keys[1],
                                   Key128{~0ull >> 2, 0}};
  std::vector<u8> hits(doomed.size(), 0xee);
  table->erase_batch(doomed, hits);
  EXPECT_EQ(hits, (std::vector<u8>{1, 0, 1, 0})) << table->name();
  EXPECT_EQ(table->count(), keys.size() - 2);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AnyTableBatch,
    ::testing::Combine(::testing::Values(hash::Scheme::kGroup, hash::Scheme::kLinear,
                                         hash::Scheme::kLevel),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = hash::scheme_name(std::get<0>(info.param));
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + (std::get<1>(info.param) ? "_wide" : "_narrow");
    });

// ---------------------------------------------------------------------------
// Concurrent wrappers (single-threaded semantics; races are covered by the
// concurrency-label torture suites)
// ---------------------------------------------------------------------------

TEST(ConcurrentBatch, ShardedMapMatchesScalar) {
  ConcurrentGroupHashMap cmap(/*shards=*/4, {.initial_cells = 1 << 12});
  Xoshiro256 rng(23);
  std::vector<u64> keys(3000), values(3000);
  for (usize i = 0; i < keys.size(); ++i) {
    keys[i] = make_key(rng);
    values[i] = rng.next();
  }
  cmap.put_batch(keys, values);
  EXPECT_EQ(cmap.size(), keys.size());

  std::vector<u64> probes = keys;
  for (int i = 0; i < 1000; ++i) probes.push_back(make_key(rng));
  std::vector<std::optional<u64>> out(probes.size());
  cmap.get_batch(probes, out);
  for (usize i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i], cmap.get(probes[i])) << i;
  }

  std::vector<u64> doomed(keys.begin(), keys.begin() + 1500);
  doomed.push_back(keys[0]);  // already-erased duplicate -> miss
  std::vector<u8> hits(doomed.size(), 0xee);
  cmap.erase_batch(doomed, hits);
  for (usize i = 0; i < 1500; ++i) ASSERT_EQ(hits[i], 1) << i;
  EXPECT_EQ(hits.back(), 0);
  EXPECT_EQ(cmap.size(), keys.size() - 1500);
}

// Scatter-back audit regression: the sharded wrapper buckets caller
// indices by shard, runs one sub-batch per shard, and scatters results
// back — results must land in caller order with the single-shard maps'
// sequential last-wins semantics, for duplicate-heavy batches and for
// both the populated and the empty `hits` span. Differential against a
// twin map driven by the scalar loop, on BOTH read legs (optimistic
// sub-batch and attempt-budget-0 lock fallback).
TEST(ConcurrentBatch, ScatterBackMatchesScalarLoopUnderDuplicates) {
  for (const u32 attempts : {ConcurrentGroupHashMap::kMaxOptimisticAttempts, 0u}) {
    ConcurrentGroupHashMap batch_map(/*shards=*/4, {.initial_cells = 1 << 10});
    ConcurrentGroupHashMap scalar_map(/*shards=*/4, {.initial_cells = 1 << 10});
    batch_map.set_max_optimistic_attempts(attempts);
    Xoshiro256 rng(31 + attempts);
    // A tiny key universe makes every batch duplicate-heavy.
    std::vector<u64> universe(37);
    for (u64& k : universe) k = make_key(rng);
    for (int round = 0; round < 80; ++round) {
      const usize n = 1 + static_cast<usize>(rng.next_below(97));
      std::vector<u64> keys(n);
      for (u64& k : keys) k = universe[rng.next_below(universe.size())];
      switch (rng.next_below(4)) {
        case 0: {  // put_batch vs scalar puts: last occurrence must win
          std::vector<u64> values(n);
          for (u64& v : values) v = rng.next();
          batch_map.put_batch(keys, values);
          for (usize i = 0; i < n; ++i) scalar_map.put(keys[i], values[i]);
          break;
        }
        case 1: {  // get_batch vs scalar gets: caller-order scatter-back
          std::vector<std::optional<u64>> out(n, std::optional<u64>(0xdead));
          batch_map.get_batch(keys, out);
          for (usize i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], scalar_map.get(keys[i])) << "round " << round << " i " << i;
          }
          break;
        }
        case 2: {  // erase_batch hits: per-occurrence sequential semantics
          std::vector<u8> hits(n, 0xee);
          batch_map.erase_batch(keys, hits);
          for (usize i = 0; i < n; ++i) {
            ASSERT_EQ(hits[i] != 0, scalar_map.erase(keys[i]))
                << "round " << round << " i " << i;
          }
          break;
        }
        case 3: {  // erase_batch with an EMPTY hits span
          batch_map.erase_batch(keys);
          for (usize i = 0; i < n; ++i) scalar_map.erase(keys[i]);
          break;
        }
      }
      ASSERT_EQ(batch_map.size(), scalar_map.size()) << "round " << round;
    }
    std::vector<std::optional<u64>> got(universe.size());
    batch_map.get_batch(universe, got);
    for (usize i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(got[i], scalar_map.get(universe[i])) << "attempts " << attempts << " i " << i;
    }
  }
}

// The same scatter-back contract over 32-byte cells (Key128), which also
// routes the concurrent probes through the in-cell 16-bit tag filter.
TEST(ConcurrentBatch, WideCellScatterBackMatchesScalarLoop) {
  ConcurrentGroupHashMapWide batch_map(/*shards=*/4, {.initial_cells = 1 << 10});
  ConcurrentGroupHashMapWide scalar_map(/*shards=*/4, {.initial_cells = 1 << 10});
  Xoshiro256 rng(41);
  std::vector<Key128> universe(29);
  for (Key128& k : universe) k = Key128{rng.next() | 1, rng.next()};
  for (int round = 0; round < 40; ++round) {
    const usize n = 1 + static_cast<usize>(rng.next_below(65));
    std::vector<Key128> keys(n);
    for (Key128& k : keys) k = universe[rng.next_below(universe.size())];
    if (round % 3 == 0) {
      std::vector<u64> values(n);
      for (u64& v : values) v = rng.next();
      batch_map.put_batch(keys, values);
      for (usize i = 0; i < n; ++i) scalar_map.put(keys[i], values[i]);
    } else if (round % 3 == 1) {
      std::vector<std::optional<u64>> out(n);
      batch_map.get_batch(keys, out);
      for (usize i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], scalar_map.get(keys[i])) << "round " << round << " i " << i;
      }
    } else {
      std::vector<u8> hits(n, 0xee);
      batch_map.erase_batch(keys, hits);
      for (usize i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i] != 0, scalar_map.erase(keys[i])) << "round " << round << " i " << i;
      }
    }
    ASSERT_EQ(batch_map.size(), scalar_map.size()) << "round " << round;
  }
}

TEST(ConcurrentBatch, StringMapGetBatchMatchesGet) {
  ConcurrentStringMap map(4);
  for (u64 k = 0; k < 800; ++k) map.put("key-" + std::to_string(k), k);
  std::vector<std::string> storage;
  for (u64 k = 0; k < 1000; ++k) storage.push_back("key-" + std::to_string(k));
  storage.push_back(std::string(300, 'z'));  // a long key, absent
  std::vector<std::string_view> probes(storage.begin(), storage.end());
  std::vector<std::optional<u64>> out(probes.size());
  map.get_batch(probes, out);
  for (usize i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i], map.get(probes[i])) << probes[i];
  }
}

// ---------------------------------------------------------------------------
// Crash coherence: tags rebuilt from a crash image match a full rescan
// ---------------------------------------------------------------------------

class TagCrash : public ::testing::Test {
 protected:
  using Table = hash::GroupHashTable<hash::Cell16, nvm::ShadowPM>;

  static constexpr hash::GroupHashTable<hash::Cell16, nvm::ShadowPM>::Params kParams{
      .level_cells = 64, .group_size = 16, .zero_memory = true};

  /// Mixed scalar + batched workload. Throws SimulatedCrash when the PM
  /// crash trigger fires mid-script.
  static void run_script(Table& t) {
    std::vector<u64> keys, values;
    for (u64 i = 1; i <= 40; ++i) {
      keys.push_back(i * 0x9e3779b97f4a7c15ull >> 1 | 1);
      values.push_back(i);
    }
    // Scalar warm-up, then batched upsert (covers both windows of 32),
    // scalar + batched erase, batched re-insert over the holes, and the
    // resize's whole-group clear.
    for (usize i = 0; i < 8; ++i) t.insert(keys[i], values[i]);
    t.upsert_batch(std::span(keys).subspan(8), std::span(values).subspan(8));
    t.erase(keys[0]);
    t.erase_batch(std::span(keys).subspan(1, 11), {});
    t.upsert_batch(std::span(keys).first(6), std::span(values).first(6));
    t.clear_group(1);
    t.clear_group(2);
  }

  /// Every script value is nonzero, so a committed cell holding value 0
  /// is one whose payload wipe reached media before its commit clear.
  static bool committed_payloads_intact(nvm::ShadowPM& pm, std::span<std::byte> mem) {
    const Table reopened = Table::attach(pm, mem);
    bool intact = true;
    reopened.for_each([&](u64, u64 v) { intact = intact && v != 0; });
    return intact;
  }

  static bool tags_match_after_reopen(nvm::ShadowPM& pm, std::span<std::byte> mem,
                                      bool recover) {
    Table reopened = Table::attach(pm, mem);
    // attach() alone must already rebuild the DRAM tags from the cells...
    if (!reopened.verify_tags()) return false;
    // ...and recovery (which scrubs torn payloads) must keep them in sync.
    if (recover) {
      reopened.recover();
      if (!reopened.verify_tags()) return false;
    }
    return true;
  }
};

TEST_F(TagCrash, ReopenRebuildsTagsAtEveryCrashPoint) {
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(Table::required_bytes(kParams));
  const std::span<std::byte> mem = region.bytes().first(Table::required_bytes(kParams));
  nvm::ShadowPM pm(mem);

  // Dry run to learn the event horizon. Formatting emits events too, and
  // every crash run re-formats — so count only the script's own events.
  u64 script_events = 0;
  {
    Table t(pm, mem, kParams, /*format=*/true);
    const u64 base = pm.event_count();
    run_script(t);
    script_events = pm.event_count() - base;
  }
  ASSERT_GT(script_events, 100u) << "script too small to be interesting";

  for (u64 crash_at = 1; crash_at < script_events; ++crash_at) {
    pm.crash_at_event(nvm::ShadowPM::no_crash());
    Table t(pm, mem, kParams, /*format=*/true);
    pm.crash_at_event(pm.event_count() + crash_at);
    bool crashed = false;
    try {
      run_script(t);
    } catch (const nvm::SimulatedCrash&) {
      crashed = true;
    }
    pm.crash_at_event(nvm::ShadowPM::no_crash());
    ASSERT_TRUE(crashed) << "crash_at " << crash_at;

    // The fence-honest image: only explicitly persisted data survives.
    const auto image = pm.materialize_crash_image(nvm::CrashMode::kNothingEvicted, 0);
    pm.reset_to_image(image);
    ASSERT_TRUE(committed_payloads_intact(pm, mem)) << "crash_at " << crash_at;
    ASSERT_TRUE(tags_match_after_reopen(pm, mem, /*recover=*/true))
        << "crash_at " << crash_at;
  }
}

TEST_F(TagCrash, ReopenRebuildsTagsUnderRandomEviction) {
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(Table::required_bytes(kParams));
  const std::span<std::byte> mem = region.bytes().first(Table::required_bytes(kParams));
  nvm::ShadowPM pm(mem);
  u64 script_events = 0;
  {
    Table t(pm, mem, kParams, /*format=*/true);
    const u64 base = pm.event_count();
    run_script(t);
    script_events = pm.event_count() - base;
  }

  Xoshiro256 rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const u64 crash_at = 1 + rng.next_below(script_events - 1);
    pm.crash_at_event(nvm::ShadowPM::no_crash());
    Table t(pm, mem, kParams, /*format=*/true);
    pm.crash_at_event(pm.event_count() + crash_at);
    try {
      run_script(t);
    } catch (const nvm::SimulatedCrash&) {
    }
    pm.crash_at_event(nvm::ShadowPM::no_crash());

    for (const u64 evict_seed : {1ull, 2ull, 3ull}) {
      const auto image =
          pm.materialize_crash_image(nvm::CrashMode::kRandomEviction, evict_seed);
      pm.reset_to_image(image);
      ASSERT_TRUE(committed_payloads_intact(pm, mem))
          << "crash_at " << crash_at << " evict_seed " << evict_seed;
      ASSERT_TRUE(tags_match_after_reopen(pm, mem, /*recover=*/true))
          << "crash_at " << crash_at << " evict_seed " << evict_seed;
    }
  }
}

// The durable maps' same-line commit: every crash point of the same
// script (clear_group's single pass included) under the x86 in-line
// persist order. A committed cell must still never show a wiped payload.
class SameLineTagCrash : public TagCrash {
 protected:
  static constexpr Table::Params kSameLineParams{.level_cells = 64,
                                                 .group_size = 16,
                                                 .zero_memory = true,
                                                 .count_mode = hash::CountMode::kRecoveryOnly,
                                                 .commit_order = hash::CommitOrder::kSameLine};
};

TEST_F(SameLineTagCrash, LinePrefixImagesAtEveryCrashPoint) {
  nvm::NvmRegion region =
      nvm::NvmRegion::create_anonymous(Table::required_bytes(kSameLineParams));
  const std::span<std::byte> mem =
      region.bytes().first(Table::required_bytes(kSameLineParams));
  nvm::ShadowPM pm(mem);
  u64 script_events = 0;
  {
    Table t(pm, mem, kSameLineParams, /*format=*/true);
    const u64 base = pm.event_count();
    run_script(t);
    script_events = pm.event_count() - base;
  }
  ASSERT_GT(script_events, 100u) << "script too small to be interesting";

  for (u64 crash_at = 1; crash_at < script_events; ++crash_at) {
    pm.crash_at_event(nvm::ShadowPM::no_crash());
    Table t(pm, mem, kSameLineParams, /*format=*/true);
    pm.crash_at_event(pm.event_count() + crash_at);
    bool crashed = false;
    try {
      run_script(t);
    } catch (const nvm::SimulatedCrash&) {
      crashed = true;
    }
    pm.crash_at_event(nvm::ShadowPM::no_crash());
    ASSERT_TRUE(crashed) << "crash_at " << crash_at;

    // Every image is drawn before the first reset rewrites the shadow.
    std::vector<std::vector<std::byte>> images;
    for (const u64 seed : {1ull, 2ull, 3ull, 4ull}) {
      images.push_back(
          pm.materialize_crash_image(nvm::CrashMode::kLinePrefix, crash_at * 31 + seed));
    }
    images.push_back(pm.materialize_crash_image(nvm::CrashMode::kNothingEvicted));
    images.push_back(pm.materialize_crash_image(nvm::CrashMode::kAllEvicted));
    for (usize i = 0; i < images.size(); ++i) {
      pm.reset_to_image(images[i]);
      ASSERT_TRUE(committed_payloads_intact(pm, mem))
          << "crash_at " << crash_at << " image " << i;
      ASSERT_TRUE(tags_match_after_reopen(pm, mem, /*recover=*/true))
          << "crash_at " << crash_at << " image " << i;
    }
  }
}

/// ShadowPM whose fences can be switched off, so a negative control can
/// run one step of a script without them.
struct FenceGatePM : nvm::ShadowPM {
  using nvm::ShadowPM::ShadowPM;
  bool drop_fences = false;
  void fence() {
    if (!drop_fences) nvm::ShadowPM::fence();
  }
  /// Drops the fences of one scope when `on`.
  struct Drop {
    FenceGatePM& pm;
    Drop(FenceGatePM& p, bool on) : pm(p) { pm.drop_fences = on; }
    ~Drop() { pm.drop_fences = false; }
  };
};

// Coalesced same-line windows: cells sharing a line are flushed once, just
// before the window's one fence. The script puts, updates and erases
// several cells of one line per window, then moves the group as a resize
// does: copies it into a second, double-size table with the resize's own
// copy (GroupHashTable::copy_group: each target line flushed once, one
// fence), clears it from the source with stores only, and persists a
// cursor word that retires it. It then erases one moved key and updates
// another in the target. At every event, under the x86 in-line persist
// order, no acked key may be lost or come back, and no committed cell may
// hold a payload the script did not write for its key.
class CoalescedWindowCrash : public ::testing::Test {
 protected:
  using Table = hash::GroupHashTable<hash::Cell16, FenceGatePM>;
  using Params = Table::Params;

  static constexpr Params kSource{.level_cells = 64,
                                  .group_size = 16,
                                  .zero_memory = true,
                                  .count_mode = hash::CountMode::kRecoveryOnly,
                                  .commit_order = hash::CommitOrder::kSameLine};
  static constexpr Params kTarget{.level_cells = 128,
                                  .group_size = 16,
                                  .zero_memory = true,
                                  .count_mode = hash::CountMode::kRecoveryOnly,
                                  .commit_order = hash::CommitOrder::kSameLine};
  static constexpr u64 kGroup = 1;  ///< the source group the script works in

  enum class Kind { kPut, kErase, kCopy, kClear, kCursor };
  struct Step {
    Kind kind;
    std::vector<u64> keys;
    std::vector<u64> values;
    bool in_target = false;  ///< a put or erase applied to the target
  };

  static usize line_up(usize bytes) {
    return (bytes + kCachelineSize - 1) / kCachelineSize * kCachelineSize;
  }
  /// Line-aligned parts of one ShadowPM span: source table, target, and a
  /// spare line holding the cursor word.
  static usize target_offset() { return line_up(Table::required_bytes(kSource)); }
  static usize cursor_offset() {
    return target_offset() + line_up(Table::required_bytes(kTarget));
  }
  static usize span_bytes() { return cursor_offset() + kCachelineSize; }
  u64* cursor_word() { return reinterpret_cast<u64*>(mem_.data() + cursor_offset()); }

  void SetUp() override {
    region_ = nvm::NvmRegion::create_anonymous(span_bytes());
    mem_ = region_.bytes().first(span_bytes());
    pm_.emplace(mem_);
    // Keys by source home slot: four owning the slots of one level-1 line
    // of group kGroup, and more sharing the first slot, which fill one
    // level-2 line of the group. `other` keys live in the next group: a
    // window that interleaves groups drains one group's lines before the
    // window ends.
    const u64 first = kGroup * kSource.group_size;
    const Table probe = source(/*format=*/true);
    std::vector<u64> by_home[4];
    std::vector<u64> extra;
    std::vector<u64> other;
    const auto enough = [&] {
      return by_home[0].size() >= 7 && by_home[1].size() >= 2 && !by_home[2].empty() &&
             !by_home[3].empty() && extra.size() >= 4 && other.size() >= 3;
    };
    for (u64 i = 1; !enough(); ++i) {
      const u64 k = (i * 0x9e3779b97f4a7c15ull) >> 1 | 1;
      const u64 home = probe.home_index(k);
      if (home >= first && home < first + 4) {
        by_home[home - first].push_back(k);
      } else if (home / kSource.group_size == kGroup && extra.size() < 4) {
        extra.push_back(k);
      } else if (home / kSource.group_size == kGroup + 1 && other.size() < 3) {
        other.push_back(k);
      }
    }
    const std::vector<u64> line1 = {by_home[0][0], by_home[1][0], by_home[2][0], by_home[3][0]};
    const std::vector<u64> line2(by_home[0].begin() + 1, by_home[0].begin() + 5);
    std::vector<u64> both = line1;
    both.insert(both.end(), line2.begin(), line2.end());
    const auto values = [](u64 base, usize n) {
      std::vector<u64> v(n);
      for (usize i = 0; i < n; ++i) v[i] = base + i;
      return v;
    };
    steps_ = {
        // 8 new cells on two lines.
        {Kind::kPut, both, values(100, 8)},
        // Updates: a hot key four times, then one more key on each line.
        {Kind::kPut,
         {line1[0], line1[0], line1[0], line1[0], line1[2], line2[1]},
         values(200, 6)},
        // Erases across both lines.
        {Kind::kErase, {line1[1], line2[0], line2[3]}, {}},
        // Re-fill the holes (a key new to the window staged three times),
        // update one more, and a scalar insert elsewhere in the group.
        {Kind::kPut,
         {by_home[1][1], by_home[0][5], by_home[0][5], by_home[0][5], line2[2]},
         values(300, 5)},
        {Kind::kPut, {extra[1]}, {400}},
        {Kind::kErase, {extra[1]}, {}},
        {Kind::kPut, {by_home[0][6], extra[2], extra[3]}, values(500, 3)},
        // Two groups, one after the other: the first group's line drains
        // before the second group's first key, the rest at the fence.
        {Kind::kPut, {line1[3], line1[3], other[0], other[1], other[2]}, values(600, 5)},
        {Kind::kErase, {line2[1], other[0], other[1], other[2]}, {}},
        {Kind::kCopy, {}, {}},
        {Kind::kClear, {}, {}},
        {Kind::kCursor, {}, {}},
        // Past the cursor: an erase and an update of moved keys, which now
        // live in the target only.
        {Kind::kErase, {line1[0]}, {}, true},
        {Kind::kPut, {line1[2]}, {700}, true},
    };
    for (const Step& step : steps_) {
      for (const u64 k : step.keys) universe_.push_back(k);
    }
  }

  Table source(bool format = false) {
    return format ? Table(*pm_, mem_.first(Table::required_bytes(kSource)), kSource, true)
                  : Table::attach(*pm_, mem_.first(Table::required_bytes(kSource)),
                                  kSource.count_mode, kSource.commit_order);
  }
  Table target(bool format = false) {
    const auto bytes = mem_.subspan(target_offset(), Table::required_bytes(kTarget));
    return format ? Table(*pm_, bytes, kTarget, true)
                  : Table::attach(*pm_, bytes, kTarget.count_mode, kTarget.commit_order);
  }

  /// The acked state after `steps` steps (copy, clear and cursor move
  /// keys between the tables without changing it).
  std::map<u64, u64> state_after(usize steps) const {
    std::map<u64, u64> state;
    for (usize s = 0; s < steps; ++s) {
      const Step& step = steps_[s];
      for (usize i = 0; i < step.keys.size(); ++i) {
        if (step.kind == Kind::kPut) state[step.keys[i]] = step.values[i];
        if (step.kind == Kind::kErase) state.erase(step.keys[i]);
      }
    }
    return state;
  }

  /// Runs the script on freshly formatted tables; `acked` counts the
  /// steps that returned. Throws SimulatedCrash when the PM trigger fires.
  void run_script(Table& src, Table& dst, usize& acked, u64* coalesced_windows = nullptr) {
    pm_->atomic_store_u64(cursor_word(), 0);
    pm_->persist(cursor_word(), sizeof(u64));
    for (const Step& step : steps_) {
      const u64 lines0 = pm_->stats().lines_flushed;
      usize cells = step.keys.size();  // cells the step writes, clear aside
      Table& t = step.in_target ? dst : src;
      switch (step.kind) {
        case Kind::kPut:
          ASSERT_EQ(t.upsert_batch(step.keys, step.values), step.keys.size());
          break;
        case Kind::kErase:
          t.erase_batch(step.keys, {});
          break;
        case Kind::kCopy: {
          // migrate_one_group's copy. A negative control drops its fence.
          u64 copied = 0;
          bool ok = false;
          {
            FenceGatePM::Drop drop(*pm_, drop_copy_fence_);  // ends on a crash too
            ok = dst.copy_group(src, kGroup, probe_, [](u64&) { return true; }, copied);
          }
          ASSERT_TRUE(ok);
          cells = copied;
          break;
        }
        case Kind::kClear:
          src.clear_group(kGroup);
          break;
        case Kind::kCursor:
          // do_migrate's cursor advance: groups below it are retired.
          pm_->atomic_store_u64(cursor_word(), kGroup + 1);
          pm_->persist(cursor_word(), sizeof(u64));
          break;
      }
      if (coalesced_windows != nullptr && pm_->stats().lines_flushed - lines0 < cells) {
        ++*coalesced_windows;
      }
      ++acked;
    }
  }

  /// Reopen both tables from the current image, clear the source groups
  /// below the durable cursor again (as the map's open does, unless
  /// `reclear` is false), recover them, and check the oracle: each key
  /// reads (target first, as a split image does) its acked value or, if
  /// the in-flight step touched it, a value that step stored for it (or
  /// nothing, if it erases it) — a window applies its keys in order, so a
  /// crash may expose any of them. Every committed cell of either table
  /// must hold one of those values.
  ::testing::AssertionResult oracle_holds(usize acked, bool reclear = true) {
    Table src = source();
    Table dst = target();
    for (u64 g = 0; reclear && g < *cursor_word(); ++g) src.clear_group(g);
    src.recover();
    dst.recover();
    if (!src.verify_tags() || !dst.verify_tags()) {
      return ::testing::AssertionFailure() << "tags out of sync";
    }
    const std::map<u64, u64> before = state_after(acked);
    const Step* inflight = acked < steps_.size() ? &steps_[acked] : nullptr;
    const auto allowed = [&](u64 k, std::optional<u64> got) {
      const auto b = before.find(k);
      if (b == before.end() ? !got : got == b->second) return true;
      for (usize i = 0; inflight != nullptr && i < inflight->keys.size(); ++i) {
        if (inflight->keys[i] != k) continue;
        if (inflight->kind == Kind::kPut && got == inflight->values[i]) return true;
        if (inflight->kind == Kind::kErase && !got) return true;
      }
      return false;
    };
    for (const u64 k : universe_) {
      std::optional<u64> got = dst.find(k);
      if (!got) got = src.find(k);
      if (!allowed(k, got)) {
        return ::testing::AssertionFailure()
               << "key " << k << " reads " << (got ? std::to_string(*got) : "nothing");
      }
    }
    ::testing::AssertionResult cells = ::testing::AssertionSuccess();
    for (const Table* t : {&src, &dst}) {
      t->for_each([&](u64 k, u64 v) {
        // With a resumed duplicate, a source cell the target masks is the
        // stale copy reads never reach; the clear below the cursor ends it.
        if (probe_ && t == &src && dst.find(k)) return;
        if (cells && (!allowed(k, v) ||
                      std::find(universe_.begin(), universe_.end(), k) == universe_.end())) {
          cells = ::testing::AssertionFailure() << "committed cell " << k << " holds " << v;
        }
      });
    }
    return cells;
  }

  /// Runs the whole script once on fresh tables and checks the oracle;
  /// returns the events it issued.
  u64 script_events(u64* coalesced_windows = nullptr) {
    Table src = source(/*format=*/true);
    Table dst = target(/*format=*/true);
    const u64 base = pm_->event_count();
    usize acked = 0;
    run_script(src, dst, acked, coalesced_windows);
    const u64 events = pm_->event_count() - base;
    EXPECT_EQ(acked, steps_.size());
    EXPECT_TRUE(oracle_holds(acked));
    return events;
  }

  /// Runs the script on fresh tables, crashing before its event
  /// `crash_at`; `acked` counts the steps that returned. False if no
  /// crash fired.
  bool crash_script_at(u64 crash_at, usize& acked) {
    pm_->crash_at_event(nvm::ShadowPM::no_crash());
    Table src = source(/*format=*/true);
    Table dst = target(/*format=*/true);
    pm_->crash_at_event(pm_->event_count() + crash_at);
    acked = 0;
    bool crashed = false;
    try {
      run_script(src, dst, acked);
    } catch (const nvm::SimulatedCrash&) {
      crashed = true;
    }
    pm_->crash_at_event(nvm::ShadowPM::no_crash());
    return crashed;
  }

  /// Sweeps every crash point of the script: the fence-honest and
  /// all-evicted images plus four x86 in-line-order (kLinePrefix) images
  /// each must satisfy the oracle.
  void sweep_line_prefix_images() {
    u64 coalesced = 0;
    const u64 events = script_events(&coalesced);
    // The sweep is only about coalescing if windows really share flushes:
    // the puts, updates, erases and the copy.
    EXPECT_GE(coalesced, 5u) << "windows that flushed fewer lines than cells";
    ASSERT_GT(events, 100u) << "script too small to be interesting";

    for (u64 crash_at = 1; crash_at < events; ++crash_at) {
      usize acked = 0;
      ASSERT_TRUE(crash_script_at(crash_at, acked)) << "crash_at " << crash_at;
      // Every image is drawn before the first reset rewrites the shadow.
      std::vector<std::vector<std::byte>> images;
      images.push_back(pm_->materialize_crash_image(nvm::CrashMode::kNothingEvicted));
      images.push_back(pm_->materialize_crash_image(nvm::CrashMode::kAllEvicted));
      for (const u64 seed : {1ull, 2ull, 3ull, 4ull}) {
        images.push_back(
            pm_->materialize_crash_image(nvm::CrashMode::kLinePrefix, crash_at * 31 + seed));
      }
      for (usize i = 0; i < images.size(); ++i) {
        pm_->reset_to_image(images[i]);
        ASSERT_TRUE(oracle_holds(acked))
            << "crash_at " << crash_at << " image " << i << " acked steps " << acked;
      }
    }
  }

  nvm::NvmRegion region_;
  std::span<std::byte> mem_;
  std::optional<FenceGatePM> pm_;
  std::vector<Step> steps_;
  std::vector<u64> universe_;
  bool probe_ = false;            ///< the copy skips keys the target holds
  bool drop_copy_fence_ = false;  ///< negative control: the copy issues no fence
};

TEST_F(CoalescedWindowCrash, LinePrefixImagesAtEveryCrashPoint) { sweep_line_prefix_images(); }

// Negative control: the source group's clear is never flushed, so only the
// re-clear below the durable cursor keeps it retired. Without it, a crash
// after the target erase leaves the fence-honest image serving the erased
// key again from the stale source group.
TEST_F(CoalescedWindowCrash, NegativeControlWithoutReclear) {
  const u64 events = script_events();
  const u64 erased = steps_[steps_.size() - 2].keys[0];
  const std::string resurrected = "key " + std::to_string(erased) + " reads ";
  u64 failures = 0;
  for (u64 crash_at = 1; crash_at < events; ++crash_at) {
    usize acked = 0;
    ASSERT_TRUE(crash_script_at(crash_at, acked)) << "crash_at " << crash_at;
    pm_->reset_to_image(pm_->materialize_crash_image(nvm::CrashMode::kNothingEvicted));
    const ::testing::AssertionResult held = oracle_holds(acked, /*reclear=*/false);
    if (!held) {
      EXPECT_EQ(std::string(held.message()).rfind(resurrected, 0), 0u) << held.message();
      failures++;
    }
  }
  EXPECT_GT(failures, 0u) << "no image brought the erased key back from the source";
}

// Negative control: the copy's one fence is what keeps the source clear
// from reaching media ahead of the copy. Without it, some x86-order image
// taken between the clear and the cursor holds neither copy of a key.
TEST_F(CoalescedWindowCrash, NegativeControlWithoutCopyFence) {
  const u64 events = script_events();
  drop_copy_fence_ = true;
  u64 failures = 0;
  for (u64 crash_at = 1; crash_at < events && failures == 0; ++crash_at) {
    usize acked = 0;
    if (!crash_script_at(crash_at, acked)) continue;  // the dropped fence shortens the script
    std::vector<std::vector<std::byte>> images;
    for (const u64 seed : {1ull, 2ull, 3ull, 4ull}) {
      images.push_back(
          pm_->materialize_crash_image(nvm::CrashMode::kLinePrefix, crash_at * 31 + seed));
    }
    for (const auto& image : images) {
      pm_->reset_to_image(image);
      const ::testing::AssertionResult held = oracle_holds(acked);
      if (!held) {
        // A key neither table holds any more: the clear landed, the copy did not.
        EXPECT_NE(std::string(held.message()).find(" reads nothing"), std::string::npos)
            << held.message();
        failures++;
      }
    }
  }
  EXPECT_GT(failures, 0u) << "no image lost a key without the copy's fence";
}

// A migration resumed from an image can find a key of the group in the
// target already: the group's copy crashed before its cursor advance, and
// a put after the resume updated the target's copy. The copy must skip
// it (probe), or the stale source value lands in the target too and
// comes back once the newer cell is erased. Same sweep, with the target
// holding such a duplicate when the copy starts and the duplicate erased
// at the end.
class ResumedCopyCrash : public CoalescedWindowCrash {
 protected:
  void SetUp() override {
    CoalescedWindowCrash::SetUp();
    probe_ = true;
    const auto copy = std::find_if(steps_.begin(), steps_.end(),
                                   [](const Step& st) { return st.kind == Kind::kCopy; });
    // A key the source group still holds when the copy starts.
    const Table probe = source(/*format=*/true);
    for (const auto& [k, v] : state_after(static_cast<usize>(copy - steps_.begin()))) {
      if (probe.home_index(k) / kSource.group_size == kGroup) dup_ = k;
    }
    ASSERT_NE(dup_, 0u);
    steps_.insert(copy, Step{Kind::kPut, {dup_}, {800}, true});
    steps_.push_back(Step{Kind::kErase, {dup_}, {}, true});
  }
  u64 dup_ = 0;
};

TEST_F(ResumedCopyCrash, LinePrefixImagesAtEveryCrashPoint) { sweep_line_prefix_images(); }

// The probe is what the resumed sweep leans on: a copy without it moves
// the stale source value in next to the newer cell, and erasing the newer
// one serves the stale one.
TEST_F(ResumedCopyCrash, CopyWithoutProbeServesTheStaleValue) {
  probe_ = false;
  Table src = source(/*format=*/true);
  Table dst = target(/*format=*/true);
  usize acked = 0;
  run_script(src, dst, acked);
  ASSERT_EQ(acked, steps_.size());
  EXPECT_TRUE(dst.find(dup_).has_value()) << "the erased duplicate should read its stale copy";
}

}  // namespace
}  // namespace gh
