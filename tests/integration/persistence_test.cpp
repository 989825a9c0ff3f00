// Multi-session persistence integration: the lifecycle a real deployment
// sees — create, populate, close, reopen, mutate, "crash", recover —
// repeated across many sessions over the same file.
#include <gtest/gtest.h>

#include <filesystem>
#include <unordered_map>

#include "core/group_hash_map.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

using gh::test::temp_path;

TEST(Persistence, ManySessionsAccumulateState) {
  const std::string path = temp_path("gh_sessions.gh");
  std::filesystem::remove(path);
  std::unordered_map<u64, u64> oracle;
  Xoshiro256 rng(1);

  {
    auto map = GroupHashMap::create(path, {.initial_cells = 4096});
    map.close();
  }
  for (int session = 0; session < 10; ++session) {
    auto map = GroupHashMap::open(path);
    EXPECT_FALSE(map.recovered_on_open()) << "session " << session;
    EXPECT_EQ(map.size(), oracle.size());
    // Each session inserts some, deletes some, updates some.
    for (int i = 0; i < 200; ++i) {
      const u64 k = rng.next_below(1 << 16) + 1;
      const double r = rng.next_double();
      if (r < 0.6) {
        const u64 v = rng.next();
        map.put(k, v);
        oracle[k] = v;
      } else {
        const bool removed = map.erase(k);
        EXPECT_EQ(removed, oracle.erase(k) == 1);
      }
    }
    map.close();
  }
  {
    auto map = GroupHashMap::open(path);
    EXPECT_EQ(map.size(), oracle.size());
    for (const auto& [k, v] : oracle) EXPECT_EQ(*map.get(k), v);
  }
  std::filesystem::remove(path);
}

TEST(Persistence, SimulatedKillRecoversViaDirtyFlag) {
  const std::string path = temp_path("gh_kill.gh");
  const std::string snapshot = temp_path("gh_kill_snapshot.gh");
  std::filesystem::remove(path);
  std::unordered_map<u64, u64> committed;
  {
    auto map = GroupHashMap::create(path, {.initial_cells = 4096});
    for (u64 k = 1; k <= 300; ++k) {
      map.put(k, k * 5);
      committed[k] = k * 5;
    }
    // "kill -9": snapshot the file while the map is still open (dirty).
    // MAP_SHARED makes all persisted writes visible through the file.
    std::filesystem::copy_file(path, snapshot,
                               std::filesystem::copy_options::overwrite_existing);
    map.close();
  }
  {
    auto map = GroupHashMap::open(snapshot);
    EXPECT_TRUE(map.recovered_on_open());
    EXPECT_EQ(map.size(), committed.size());
    for (const auto& [k, v] : committed) EXPECT_EQ(*map.get(k), v);
    // The recovered map is fully usable.
    map.put(9999999, 1);
    EXPECT_EQ(*map.get(9999999), 1u);
    map.close();
  }
  // And the recovered file reopens cleanly.
  {
    auto map = GroupHashMap::open(snapshot);
    EXPECT_FALSE(map.recovered_on_open());
    EXPECT_EQ(map.size(), committed.size() + 1);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(snapshot);
}

TEST(Persistence, ExpansionAcrossSessions) {
  const std::string path = temp_path("gh_grow.gh");
  std::filesystem::remove(path);
  {
    auto map = GroupHashMap::create(path, {.initial_cells = 64});
    for (u64 k = 1; k <= 100; ++k) map.put(k, k);
    map.close();
  }
  const auto size_small = std::filesystem::file_size(path);
  {
    auto map = GroupHashMap::open(path);
    for (u64 k = 101; k <= 2000; ++k) map.put(k, k);
    map.close();
  }
  EXPECT_GT(std::filesystem::file_size(path), size_small);
  {
    auto map = GroupHashMap::open(path);
    EXPECT_EQ(map.size(), 2000u);
    for (u64 k = 1; k <= 2000; ++k) EXPECT_EQ(*map.get(k), k);
  }
  std::filesystem::remove(path);
}

TEST(Persistence, WideMapLifecycle) {
  const std::string path = temp_path("gh_wide_lifecycle.gh");
  std::filesystem::remove(path);
  {
    auto map = GroupHashMapWide::create(path, {.initial_cells = 1024});
    for (u64 i = 1; i <= 200; ++i) map.put(Key128{i * 3, i * 7}, i);
    for (u64 i = 1; i <= 200; i += 2) map.erase(Key128{i * 3, i * 7});
    map.close();
  }
  {
    auto map = GroupHashMapWide::open(path);
    EXPECT_EQ(map.size(), 100u);
    for (u64 i = 2; i <= 200; i += 2) EXPECT_EQ(*map.get(Key128{i * 3, i * 7}), i);
    for (u64 i = 1; i <= 200; i += 2) EXPECT_FALSE(map.get(Key128{i * 3, i * 7}).has_value());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh
