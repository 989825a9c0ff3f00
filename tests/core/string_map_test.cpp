#include "core/string_map.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <unordered_map>

#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

using gh::test::temp_path;

TEST(StringMap, BasicPutGetErase) {
  auto map = PersistentStringMap::create_in_memory({});
  EXPECT_TRUE(map.empty());
  map.put("alpha", 1);
  map.put("beta", 2);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.get("alpha"), 1u);
  EXPECT_EQ(*map.get("beta"), 2u);
  EXPECT_FALSE(map.get("gamma").has_value());
  EXPECT_TRUE(map.erase("alpha"));
  EXPECT_FALSE(map.get("alpha").has_value());
  EXPECT_FALSE(map.erase("alpha"));
  EXPECT_EQ(map.size(), 1u);
}

TEST(StringMap, UpdateIsInPlaceWithoutArenaGrowth) {
  auto map = PersistentStringMap::create_in_memory({});
  map.put("key", 1);
  const u64 used_before = map.arena_usage().used;
  for (u64 v = 2; v <= 100; ++v) map.put("key", v);
  EXPECT_EQ(*map.get("key"), 100u);
  EXPECT_EQ(map.arena_usage().used, used_before);  // no new records
  EXPECT_EQ(map.size(), 1u);
}

TEST(StringMap, KeysOfAllShapes) {
  auto map = PersistentStringMap::create_in_memory({});
  const std::string keys[] = {
      "",                                  // empty key
      "a",                                 // single char
      std::string(1000, 'x'),              // long key
      std::string("embedded\0null", 13),   // binary content
      "unicode-ключ-鍵",                   // multi-byte
  };
  u64 v = 1;
  for (const auto& k : keys) map.put(k, v++);
  v = 1;
  for (const auto& k : keys) {
    ASSERT_TRUE(map.get(k).has_value()) << "key size " << k.size();
    EXPECT_EQ(*map.get(k), v++);
  }
}

TEST(StringMap, SimilarKeysDoNotAlias) {
  auto map = PersistentStringMap::create_in_memory({});
  map.put("user:1", 1);
  map.put("user:10", 10);
  map.put("user:100", 100);
  map.put("User:1", 9991);
  EXPECT_EQ(*map.get("user:1"), 1u);
  EXPECT_EQ(*map.get("user:10"), 10u);
  EXPECT_EQ(*map.get("user:100"), 100u);
  EXPECT_EQ(*map.get("User:1"), 9991u);
}

TEST(StringMap, OracleChurn) {
  auto map = PersistentStringMap::create_in_memory({.map = {.initial_cells = 1 << 12}});
  std::unordered_map<std::string, u64> oracle;
  Xoshiro256 rng(5);
  for (int step = 0; step < 5000; ++step) {
    const std::string key = "k" + std::to_string(rng.next_below(800));
    const double r = rng.next_double();
    if (r < 0.6) {
      const u64 v = rng.next();
      map.put(key, v);
      oracle[key] = v;
    } else if (r < 0.8) {
      const auto found = map.get(key);
      const auto it = oracle.find(key);
      ASSERT_EQ(found.has_value(), it != oracle.end());
      if (found) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(map.erase(key), oracle.erase(key) == 1);
    }
  }
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) EXPECT_EQ(*map.get(k), v);
}

TEST(StringMap, ForEachVisitsEverything) {
  auto map = PersistentStringMap::create_in_memory({});
  std::unordered_map<std::string, u64> expected;
  for (int i = 0; i < 50; ++i) {
    const std::string k = "item-" + std::to_string(i);
    map.put(k, i);
    expected[k] = i;
  }
  map.erase("item-25");
  expected.erase("item-25");
  std::unordered_map<std::string, u64> seen;
  map.for_each([&](std::string_view k, u64 v) { seen[std::string(k)] = v; });
  EXPECT_EQ(seen, expected);
}

TEST(StringMap, CompactionReclaimsGarbage) {
  auto map = PersistentStringMap::create_in_memory({.map = {.initial_cells = 1 << 10}});
  // Create garbage: insert+erase cycles leave orphaned records.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) {
      map.put("tmp-" + std::to_string(round) + "-" + std::to_string(i), i);
    }
    for (int i = 0; i < 100; ++i) {
      map.erase("tmp-" + std::to_string(round) + "-" + std::to_string(i));
    }
  }
  map.put("keeper", 42);
  const auto before = map.arena_usage();
  EXPECT_GT(before.used, before.live);  // garbage exists
  map.compact();
  const auto after = map.arena_usage();
  EXPECT_EQ(after.used, after.live);  // all garbage gone
  EXPECT_LT(after.used, before.used);
  EXPECT_EQ(*map.get("keeper"), 42u);
}

TEST(StringMap, AutoGrowsBeyondInitialCapacity) {
  auto map = PersistentStringMap::create_in_memory(
      {.map = {.initial_cells = 64}, .arena_bytes_per_cell = 16});
  for (int i = 0; i < 2000; ++i) {
    map.put("grow-key-" + std::to_string(i), static_cast<u64>(i));
  }
  EXPECT_EQ(map.size(), 2000u);
  EXPECT_GT(map.snapshot().lifecycle.compactions, 0u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(map.get("grow-key-" + std::to_string(i)).has_value()) << i;
    EXPECT_EQ(*map.get("grow-key-" + std::to_string(i)), static_cast<u64>(i));
  }
}

TEST(StringMap, FilePersistenceAcrossSessions) {
  const std::string path = temp_path("gh_string_map.gh");
  std::filesystem::remove(path);
  {
    auto map = PersistentStringMap::create(path, {});
    map.put("persistent", 7);
    map.put("state", 8);
    map.close();
  }
  {
    auto map = PersistentStringMap::open(path);
    EXPECT_FALSE(map.recovered_on_open());
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(*map.get("persistent"), 7u);
    map.put("more", 9);
    map.close();
  }
  {
    auto map = PersistentStringMap::open(path);
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(*map.get("more"), 9u);
  }
  std::filesystem::remove(path);
}

TEST(StringMap, DirtyFileTriggersRecoveryOnOpen) {
  const std::string path = temp_path("gh_string_map_dirty.gh");
  const std::string snap = temp_path("gh_string_map_dirty_snap.gh");
  std::filesystem::remove(path);
  {
    auto map = PersistentStringMap::create(path, {});
    for (int i = 0; i < 100; ++i) map.put("crash-" + std::to_string(i), i);
    std::filesystem::copy_file(path, snap,
                               std::filesystem::copy_options::overwrite_existing);
    map.close();
  }
  {
    auto map = PersistentStringMap::open(snap);
    EXPECT_TRUE(map.recovered_on_open());
    EXPECT_EQ(map.size(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(*map.get("crash-" + std::to_string(i)), static_cast<u64>(i));
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(snap);
}

TEST(StringMap, CompactionOfFileBackedMapSurvivesReopen) {
  const std::string path = temp_path("gh_string_map_compact.gh");
  std::filesystem::remove(path);
  {
    auto map = PersistentStringMap::create(path, {.map = {.initial_cells = 64}});
    for (int i = 0; i < 500; ++i) map.put("file-grow-" + std::to_string(i), i);
    EXPECT_GT(map.snapshot().lifecycle.compactions, 0u);
    map.close();
  }
  {
    auto map = PersistentStringMap::open(path);
    EXPECT_EQ(map.size(), 500u);
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(*map.get("file-grow-" + std::to_string(i)), static_cast<u64>(i));
    }
  }
  std::filesystem::remove(path);
}

TEST(StringMap, CompactionKeepsLevelTwoChecksumsAcrossReopen) {
  // Regression: a compaction's copy dropped the checksum delta of the
  // level-2 cells it wrote, so a clean reopen right after it quarantined
  // those groups and lost their keys.
  const std::string path = temp_path("gh_string_map_compact_crc.gh");
  std::filesystem::remove(path);
  constexpr int kKeys = 36;  // more than the 32 level-1 cells: level 2 holds keys
  {
    auto map = PersistentStringMap::create(path, {.map = {.initial_cells = 64}});
    for (int i = 0; i < kKeys; ++i) map.put("crc-" + std::to_string(i), i);
    ASSERT_EQ(map.capacity(), 64u);
    map.compact();
    ASSERT_EQ(map.capacity(), 64u);
    EXPECT_TRUE(map.debug_verify_group_checksums());
    map.close();
  }
  {
    auto map = PersistentStringMap::open(path);
    EXPECT_TRUE(map.open_scrub_report().clean());
    EXPECT_EQ(map.size(), static_cast<u64>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_EQ(map.get("crc-" + std::to_string(i)), static_cast<u64>(i)) << i;
    }
  }
  std::filesystem::remove(path);
}

TEST(StringMap, RejectsGarbageFile) {
  const std::string path = temp_path("gh_string_map_junk.gh");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::string junk(16384, 'q');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  EXPECT_THROW(PersistentStringMap::open(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh
