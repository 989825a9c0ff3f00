// Batched-writer torture: four threads issue overlapping put_batch and
// erase_batch calls whose keys span every shard of one concurrent map.
// The wrapper takes free shard locks first and defers busy ones to a
// blocking pass, so the calls interleave shard by shard. Each thread owns
// its keys, so what it reads back is fully determined by its own calls:
//
//   * every shard applies its share of every call exactly once — the
//     shard tables' batch_ops / batch_keys equal the calls and keys
//     routed to them;
//   * within a call, a key's later write supersedes its earlier one, and
//     each call supersedes the thread's previous ones;
//   * erase_batch reports a hit exactly for the owned keys then present.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/concurrent_map.hpp"

namespace gh {
namespace {

constexpr u32 kThreads = 4;
constexpr usize kShards = 8;
constexpr usize kKeysPerThread = 48;
constexpr u64 kRounds = 1000;

/// Round r's value for `key`; `late` marks the second write of a key
/// repeated within one call.
u64 value_of(u64 key, u64 round, bool late) { return key << 20 | round << 1 | (late ? 1 : 0); }

/// Whether round r of the owning thread leaves `key` erased.
bool erased_in(u64 key, u64 round) { return (key + round) % 3 == 0; }

TEST(BatchTorture, OverlappingBatchesApplyEveryShardOnceAndKeepPerThreadOrder) {
  ConcurrentGroupHashMap map(kShards, {.initial_cells = u64{1} << 15});
  // Thread t owns keys k with k % kThreads == t: disjoint sets that each
  // cover every shard.
  std::array<std::vector<u64>, kThreads> owned;
  for (u64 k = 1; owned[kThreads - 1].size() < kKeysPerThread; ++k) {
    if (owned[k % kThreads].size() < kKeysPerThread) owned[k % kThreads].push_back(k);
  }
  for (const auto& keys : owned) {
    std::array<bool, kShards> covered{};
    for (const u64 k : keys) covered[map.shard_index(k)] = true;
    for (const bool c : covered) ASSERT_TRUE(c) << "every call must span every shard";
  }

  std::array<std::atomic<u64>, kShards> routed_calls{};
  std::array<std::atomic<u64>, kShards> routed_keys{};
  std::atomic<u64> failures{0};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<u64>& keys = owned[t];
      const auto route = [&](std::span<const u64> batch) {
        std::array<u64, kShards> per_shard{};
        for (const u64 k : batch) per_shard[map.shard_index(k)]++;
        for (usize s = 0; s < kShards; ++s) {
          if (per_shard[s] == 0) continue;
          routed_calls[s] += 1;
          routed_keys[s] += per_shard[s];
        }
      };
      for (u64 r = 0; r < kRounds; ++r) {
        // Every key early, then every other key again with a later value.
        std::vector<u64> put_keys(keys);
        std::vector<u64> put_vals;
        for (const u64 k : keys) put_vals.push_back(value_of(k, r, false));
        for (usize i = r % 2; i < keys.size(); i += 2) {
          put_keys.push_back(keys[i]);
          put_vals.push_back(value_of(keys[i], r, true));
        }
        map.put_batch(put_keys, put_vals);
        route(put_keys);

        std::vector<u64> gone;
        for (const u64 k : keys) {
          if (erased_in(k, r)) gone.push_back(k);
        }
        std::vector<u8> hits(gone.size(), 0);
        map.erase_batch(gone, hits);
        route(gone);
        for (const u8 h : hits) {
          if (h != 1) failures++;
        }

        for (usize i = 0; i < keys.size(); ++i) {
          const u64 k = keys[i];
          const std::optional<u64> got = map.get(k);
          const bool late = i % 2 == r % 2;
          const std::optional<u64> want =
              erased_in(k, r) ? std::nullopt : std::optional<u64>(value_of(k, r, late));
          if (got != want) failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  u64 expected_size = 0;
  for (const auto& keys : owned) {
    for (const u64 k : keys) expected_size += erased_in(k, kRounds - 1) ? 0 : 1;
  }
  EXPECT_EQ(map.size(), expected_size);
  for (usize s = 0; s < kShards; ++s) {
    const auto [calls, keys] = map.with_shard_table(s, [](const auto& table) {
      return std::pair<u64, u64>{table.stats().batch_ops.load(), table.stats().batch_keys.load()};
    });
    EXPECT_EQ(calls, routed_calls[s].load()) << "shard " << s;
    EXPECT_EQ(keys, routed_keys[s].load()) << "shard " << s;
  }
}

}  // namespace
}  // namespace gh
