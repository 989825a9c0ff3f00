// Randomized crash-recovery fuzz for PersistentStringMap, mirroring
// tests/hash/crash_fuzz_test.cpp for the string layer: run a random
// op sequence against an in-process oracle, "crash" by abandoning the
// mapping without a clean shutdown, reopen through recovery, and require
// every oracle entry to survive with its last committed value.
//
// The string map commits each mutation with one 8-byte atomic store
// (arena head / cell word / record value word), so a crash between ops
// loses nothing; a crash MID-op is exercised separately by the hash-layer
// fuzz (the cell protocol is shared). Here the adversary is the dirty
// superblock: reopen must detect it, rescan, and rebuild the count.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unordered_map>

#include "core/string_map.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

using gh::test::temp_path;

void run_crash_trial(u64 seed, u64 ops, const StringMapOptions& options) {
  const std::string path =
      temp_path("gh_smap_crash_" + std::to_string(seed) + ".gh");
  std::filesystem::remove(path);

  Xoshiro256 rng(seed);
  std::unordered_map<std::string, u64> oracle;
  const auto random_key = [&rng] {
    return "k" + std::to_string(rng.next_below(400));
  };

  {
    auto map = PersistentStringMap::create(path, options);
    for (u64 i = 0; i < ops; ++i) {
      const std::string key = random_key();
      switch (rng.next_below(3)) {
        case 0:
        case 1: {
          const u64 value = rng.next();
          map.put(key, value);
          oracle[key] = value;
          break;
        }
        default: {
          EXPECT_EQ(map.erase(key), oracle.erase(key) > 0) << "key " << key;
          break;
        }
      }
    }
    map.abandon();  // crash: no clean-shutdown mark
  }

  auto map = PersistentStringMap::open(path, options);
  EXPECT_TRUE(map.recovered_on_open()) << "seed " << seed;
  EXPECT_EQ(map.size(), oracle.size()) << "seed " << seed;
  for (const auto& [key, value] : oracle) {
    const auto got = map.get(key);
    ASSERT_TRUE(got.has_value()) << "seed " << seed << " key " << key;
    EXPECT_EQ(*got, value) << "seed " << seed << " key " << key;
  }
  map.close();
  std::filesystem::remove(path);
}

TEST(StringMapCrashFuzz, RandomOpsSurviveAbandonAndRecovery) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    run_crash_trial(seed, /*ops=*/600, {});
  }
}

TEST(StringMapCrashFuzz, SurvivesWithCompactionsInTheMix) {
  // Tiny geometry: compactions (region replacement) happen mid-sequence,
  // and the final abandoned region is a compacted one.
  for (u64 seed = 100; seed <= 110; ++seed) {
    run_crash_trial(seed, /*ops=*/1500,
                    {.map = {.initial_cells = 64}, .arena_bytes_per_cell = 32});
  }
}

TEST(StringMapCrashFuzz, AbandonedEmptyMapRecovers) {
  const std::string path = temp_path("gh_smap_crash_empty.gh");
  std::filesystem::remove(path);
  {
    auto map = PersistentStringMap::create(path, {});
    map.abandon();
  }
  auto map = PersistentStringMap::open(path);
  EXPECT_TRUE(map.recovered_on_open());
  EXPECT_EQ(map.size(), 0u);
  map.put("post-recovery", 7);
  EXPECT_EQ(*map.get("post-recovery"), 7u);
  map.close();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh
