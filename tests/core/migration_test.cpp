// Functional suite for the resize migration.
//
// A placement failure publishes a double-sized migration target
// (`<path>.migrate`, own superblock) and the mutating ops themselves
// drain groups into it — all of them inline by default, or a few at a
// time (the "help-along" bound, migrate_groups_per_op), with
// migrate_step() as the background tap. This suite runs the bounded
// settings, which leave a split image to test against: correctness of
// reads/writes against it, the bounded help-along, the durable cursor's
// reopen-resume and open-time verification, integrity invariants
// (fingerprint tags, per-group CRCs) mid-migration, counters that never
// run backwards, and the backoff surfacing regression (obs::Snapshot
// must show the current expand backoff window). Crash-at-every-step
// coverage lives in migration_crash_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/map_format.hpp"
#include "core/string_map.hpp"
#include "nvm/crash_point.hpp"
#include "nvm/fault_fs.hpp"
#include "obs/export.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

namespace fs = std::filesystem;

using gh::test::temp_path;

u64 key_of(u64 i) { return 3 * i + 1; }
u64 value_of(u64 i) { return i * 17 + 5; }

MapOptions online_options(u32 groups_per_op = 1) {
  MapOptions o;
  o.initial_cells = 64;
  o.group_size = 8;
  o.flush_latency_ns = 0;
  o.migrate_groups_per_op = groups_per_op;
  return o;
}

/// Drives puts until a migration is running, then stops. Returns the
/// number of keys inserted (all of key_of/value_of(0..n-1)).
u64 fill_until_migrating(GroupHashMap& map, u64 limit = 10'000) {
  u64 i = 0;
  while (!map.migration_active() && i < limit) {
    map.put(key_of(i), value_of(i));
    ++i;
  }
  return i;
}

TEST(Migration, ResizeCompletesIncrementallyAndKeepsEveryKey) {
  auto map = GroupHashMap::create_in_memory(online_options());
  constexpr u64 kKeys = 3000;  // forces several back-to-back migrations
  for (u64 i = 0; i < kKeys; ++i) {
    map.put(key_of(i), value_of(i));
    // The split image must serve correct reads at every moment.
    if (i % 97 == 0) {
      const auto got = map.get(key_of(i / 2));
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_EQ(*got, value_of(i / 2));
    }
  }
  // Drain whatever migration is still running so the end state is a
  // single table again.
  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  EXPECT_EQ(map.size(), kKeys);
  for (u64 i = 0; i < kKeys; ++i) {
    const auto got = map.get(key_of(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, value_of(i)) << i;
  }
  const obs::Snapshot s = map.snapshot();
  EXPECT_GE(s.migration.started, 1u);
  EXPECT_EQ(s.migration.started, s.migration.completed);
  EXPECT_GT(s.migration.keys_migrated, 0u);
  EXPECT_EQ(s.lifecycle.expansions, s.migration.completed) << "every finalize is an expansion";
  map.close();
}

TEST(Migration, HelpAlongIsBoundedPerOp) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/2));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  u64 i = inserted;
  while (map.migration_active()) {
    const u64 before = map.migration_cursor();
    map.put(key_of(i), value_of(i));
    ++i;
    if (!map.migration_active()) break;  // this put finished the drain
    EXPECT_LE(map.migration_cursor() - before, 2u)
        << "a mutating op must not migrate more than migrate_groups_per_op groups";
  }
  for (u64 j = 0; j < i; ++j) ASSERT_EQ(map.get(key_of(j)), value_of(j)) << j;
  map.close();
}

TEST(Migration, ZeroHelpAlongLeavesDrainToMigrateStep) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  const u64 cursor = map.migration_cursor();

  // Ops do not help: the cursor must hold still across a write burst.
  for (u64 i = 0; i < 32; ++i) map.put(key_of(inserted + i), value_of(inserted + i));
  EXPECT_TRUE(map.migration_active());
  EXPECT_EQ(map.migration_cursor(), cursor);

  // Bounded background steps drain it completely.
  u64 drained = 0;
  while (map.migration_active()) {
    const u64 n = map.migrate_step(4);
    ASSERT_GT(n, 0u) << "an active migration must make progress";
    EXPECT_LE(n, 4u);
    drained += n;
  }
  EXPECT_GT(drained, 0u);
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.migration.bg_steps, drained);
  EXPECT_EQ(s.migration.help_steps, 0u);
  for (u64 i = 0; i < inserted + 32; ++i) {
    ASSERT_EQ(map.get(key_of(i)), value_of(i)) << i;
  }
  map.close();
}

TEST(Migration, SplitImageServesEveryOpKind) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  // Park the migration mid-drain so every op below runs against the
  // split image.
  ASSERT_GT(map.migrate_step(2), 0u);
  ASSERT_TRUE(map.migration_active());

  // get / contains / get_batch see both halves.
  std::vector<u64> keys;
  for (u64 i = 0; i < inserted; ++i) keys.push_back(key_of(i));
  std::vector<std::optional<u64>> out(keys.size());
  map.get_batch(keys, out);
  for (u64 i = 0; i < inserted; ++i) {
    ASSERT_TRUE(out[i].has_value()) << i;
    EXPECT_EQ(*out[i], value_of(i));
    EXPECT_TRUE(map.contains(key_of(i)));
  }

  // Updates land on whichever half holds the key and must not duplicate.
  const u64 before = map.size();
  for (u64 i = 0; i < inserted; ++i) map.put(key_of(i), value_of(i) + 1);
  EXPECT_EQ(map.size(), before);
  for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i) + 1);

  // increment reads through the split image too.
  EXPECT_EQ(map.increment(key_of(0), 10), value_of(0) + 11);
  EXPECT_EQ(map.increment(key_of(0), 10), value_of(0) + 21);

  // erase / erase_batch hit both halves; erased keys stay gone.
  EXPECT_TRUE(map.erase(key_of(1)));
  EXPECT_FALSE(map.erase(key_of(1)));
  EXPECT_FALSE(map.get(key_of(1)).has_value());
  std::vector<u64> erase_keys{key_of(2), key_of(3), key_of(1)};
  std::vector<u8> hits(erase_keys.size(), 0);
  map.erase_batch(erase_keys, hits);
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 0);

  // for_each walks the union exactly once per key.
  std::map<u64, u64> walked;
  map.for_each([&](u64 k, u64 v) {
    const bool fresh = walked.emplace(k, v).second;
    EXPECT_TRUE(fresh) << "duplicate key in for_each: " << k;
  });
  EXPECT_EQ(walked.size(), map.size());

  while (map.migration_active()) map.migrate_step(~0ull);
  EXPECT_FALSE(map.get(key_of(1)).has_value());
  for (u64 i = 4; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i) + 1);
  map.close();
}

TEST(Migration, GetBatchMatchesScalarGetOnBothSidesOfTheCursor) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/1));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  // The put that started the resize drained one group and parked the
  // cursor: keys now sit in the target and in the old table.
  ASSERT_GT(map.migration_cursor(), 0u);
  ASSERT_GT(map.migration_table()->count(), 0u);
  ASSERT_GT(map.raw_table().count(), 0u);
  std::vector<u64> keys;
  for (u64 i = 0; i < inserted; ++i) {
    keys.push_back(key_of(i));
    keys.push_back(key_of(inserted + 1000 + i));  // absent
  }
  std::vector<std::optional<u64>> out(keys.size(), std::optional<u64>(0xbad));
  map.get_batch(keys, out);
  ASSERT_TRUE(map.migration_active());
  for (usize i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], map.get(keys[i])) << i;
    EXPECT_EQ(out[i].has_value(), i % 2 == 0) << i;
  }
  map.close();
}

TEST(Migration, IntegrityInvariantsHoldMidMigration) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  // Check at several cursor positions, including the endpoints.
  do {
    EXPECT_TRUE(map.debug_verify_tags())
        << "DRAM fingerprint tags out of sync at cursor " << map.migration_cursor();
    EXPECT_TRUE(map.debug_verify_group_checksums())
        << "group CRC mismatch at cursor " << map.migration_cursor();
  } while (map.migrate_step(1) > 0 && map.migration_active());
  EXPECT_TRUE(map.debug_verify_tags());
  EXPECT_TRUE(map.debug_verify_group_checksums());
  for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i));
  map.close();
}

TEST(Migration, CleanCloseMidMigrationResumesOnOpen) {
  const std::string path = temp_path("gh_migration_resume.gh");
  const std::string mig = path + ".migrate";
  fs::remove(path);
  fs::remove(mig);

  u64 inserted = 0;
  u64 cursor = 0;
  {
    auto map = GroupHashMap::create(path, online_options(/*groups_per_op=*/0));
    inserted = fill_until_migrating(map);
    ASSERT_TRUE(map.migration_active());
    ASSERT_GT(map.migrate_step(2), 0u);
    ASSERT_TRUE(map.migration_active());
    cursor = map.migration_cursor();
    map.close();  // clean shutdown with the split image on disk
  }
  ASSERT_TRUE(fs::exists(mig));

  {
    auto map = GroupHashMap::open(path, online_options(/*groups_per_op=*/0));
    ASSERT_TRUE(map.migration_active()) << "the durable cursor must resume the drain";
    EXPECT_EQ(map.migration_cursor(), cursor) << "resume where the cursor points";
    EXPECT_FALSE(map.recovered_on_open()) << "clean close, so no Algorithm-4 pass";
    const obs::Snapshot s = map.snapshot();
    EXPECT_EQ(s.migration.resumed, 1u);
    for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i)) << i;
    while (map.migration_active()) map.migrate_step(~0ull);
    EXPECT_FALSE(fs::exists(mig)) << "finalize renames the target over the map";
    for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i)) << i;
    map.close();
  }
  // Third life: the finalized image is a plain single-table map.
  {
    auto map = GroupHashMap::open(path, online_options());
    EXPECT_FALSE(map.migration_active());
    EXPECT_EQ(map.size(), inserted);
    map.close();
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, CleanCloseSealsExactCountAndChecksums) {
  // Mutations leave both tables' count and checksum words to recovery
  // (hash::CountMode::kRecoveryOnly); close() must seal them before the
  // clean mark, mid-migration and after finalize alike, or the clean
  // reopen would trust stale words: a wrong size() and failed checksums.
  const std::string path = temp_path("gh_migration_sealed.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  std::map<u64, u64> oracle;
  u64 next = 0;
  const auto put_batch = [&](GroupHashMap& map, u64 n) {
    std::vector<u64> keys, values;
    for (u64 j = 0; j < n; ++j, ++next) {
      keys.push_back(key_of(next));
      values.push_back(value_of(next));
      oracle[key_of(next)] = value_of(next);
    }
    map.put_batch(keys, values);
  };
  const auto erase_some = [&](GroupHashMap& map, u64 stride) {
    std::vector<u64> batch;
    u64 i = 0;
    for (auto it = oracle.begin(); it != oracle.end(); ++i) {
      if (i % stride != 0) {
        ++it;
      } else if (i % (2 * stride) == 0) {
        EXPECT_TRUE(map.erase(it->first));
        it = oracle.erase(it);
      } else {
        batch.push_back(it->first);
        it = oracle.erase(it);
      }
    }
    std::vector<u8> hits(batch.size(), 0);
    map.erase_batch(batch, hits);
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), static_cast<long>(batch.size()));
  };
  const auto reopen_checks = [&](GroupHashMap& map) {
    EXPECT_FALSE(map.recovered_on_open());
    EXPECT_GT(map.open_scrub_report().groups_checked, 0u);
    EXPECT_TRUE(map.open_scrub_report().clean());
    EXPECT_EQ(map.size(), oracle.size());
    for (const auto& [k, v] : oracle) ASSERT_EQ(map.get(k), v) << k;
  };
  {
    auto map = GroupHashMap::create(path, online_options(/*groups_per_op=*/0));
    next = fill_until_migrating(map);
    for (u64 i = 0; i < next; ++i) oracle[key_of(i)] = value_of(i);
    ASSERT_GT(map.migrate_step(1), 0u);
    put_batch(map, 24);
    erase_some(map, 5);
    ASSERT_TRUE(map.migration_active());
    map.close();
  }
  {
    auto map = GroupHashMap::open(path, online_options(/*groups_per_op=*/0));
    ASSERT_TRUE(map.migration_active());
    reopen_checks(map);
    put_batch(map, 16);
    for (u64 j = 0; j < 8; ++j, ++next) {
      map.put(key_of(next), value_of(next));
      oracle[key_of(next)] = value_of(next);
    }
    erase_some(map, 7);
    while (map.migration_active()) map.migrate_step(~0ull);
    map.close();
  }
  {
    auto map = GroupHashMap::open(path, online_options(/*groups_per_op=*/0));
    EXPECT_FALSE(map.migration_active());
    reopen_checks(map);
    map.close();
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, ResumeHonorsDurableCursorWhateverTheFlagSays) {
  // An image with an armed cursor resumes even when reopened with
  // drain-all options — the split image is a fact of the file, not a
  // runtime preference.
  const std::string path = temp_path("gh_migration_resume_flagless.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  u64 inserted = 0;
  {
    auto map = GroupHashMap::create(path, online_options(/*groups_per_op=*/0));
    inserted = fill_until_migrating(map);
    ASSERT_GT(map.migrate_step(1), 0u);
    ASSERT_TRUE(map.migration_active());
    map.close();
  }
  MapOptions plain;
  plain.initial_cells = 64;
  plain.group_size = 8;
  plain.flush_latency_ns = 0;
  auto map = GroupHashMap::open(path, plain);
  ASSERT_TRUE(map.migration_active());
  while (map.migration_active()) map.migrate_step(~0ull);
  for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i)) << i;
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

/// Fails every filesystem step whose path contains `needle` — a
/// persistent fault (full disk, bad directory), unlike
/// CrashScheduleFs::fail_at's one-shot.
struct PathFailFs : nvm::FsPolicy {
  std::string needle;
  Decision on_step(const nvm::FsStep& step) override {
    if (step.path.find(needle) != std::string::npos) return Decision::kFail;
    return Decision::kProceed;
  }
};

TEST(Migration, ExpandBackoffSurfacesInSnapshot) {
  // Satellite regression: obs::Snapshot must expose the try_expand
  // backoff state (current window and ops left before the retry) so an
  // operator can see a limping map without reading logs.
  const std::string path = temp_path("gh_migration_backoff.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  auto map = GroupHashMap::create(path, online_options());
  {
    PathFailFs fail;
    fail.needle = ".migrate";
    const nvm::ScopedFsPolicy installed(&fail);
    u64 degraded = 0;
    u64 i = 0;
    u64 unplaceable = 0;  // a key the full table rejected — rejects again
    while (degraded < 2 && i < 10'000) {
      try {
        map.put(key_of(i), value_of(i));
      } catch (const MapDegradedError&) {
        ++degraded;
        unplaceable = key_of(i);
      }
      ++i;
    }
    ASSERT_EQ(degraded, 2u) << "the failing target create must degrade puts";
    EXPECT_TRUE(map.degraded());
    const obs::Snapshot s = map.snapshot();
    EXPECT_TRUE(s.lifecycle.degraded);
    EXPECT_EQ(s.lifecycle.expand_failures, 2u);
    // Failure 1 retries immediately (backoff 1, no window); the second
    // consecutive failure doubles the window and opens it: cooldown 1.
    EXPECT_EQ(s.lifecycle.expand_backoff, 2u);
    EXPECT_EQ(s.lifecycle.expand_cooldown, 1u);
    // The next placement failure is absorbed by the window (no
    // expansion attempt): cooldown drains to 0, the cap stays.
    try {
      map.put(unplaceable, 1);
      FAIL() << "put inside the backoff window must degrade";
    } catch (const MapDegradedError&) {
    }
    const obs::Snapshot s2 = map.snapshot();
    EXPECT_EQ(s2.lifecycle.expand_failures, 2u) << "absorbed, not retried";
    EXPECT_EQ(s2.lifecycle.expand_backoff, 2u);
    EXPECT_EQ(s2.lifecycle.expand_cooldown, 0u);
  }
  // Fault gone: the next placement failure retries and succeeds, and the
  // backoff fields read zero again.
  u64 j = 100'000;
  while (!map.migration_active()) map.put(key_of(j), value_of(j)), ++j;
  EXPECT_FALSE(map.degraded());
  const obs::Snapshot after = map.snapshot();
  EXPECT_EQ(after.lifecycle.expand_backoff, 0u);
  EXPECT_EQ(after.lifecycle.expand_cooldown, 0u);
  while (map.migration_active()) map.migrate_step(~0ull);
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, EmergencyExpandMergesSplitImageWhenTargetOverflows) {
  // A migration is parked (no help-along) and writes keep landing until
  // the target cannot take one more key of an undrained group without
  // that group's copy overflowing. try_expand must then finish the
  // migration with every key. (The key's group is then at its limit in
  // the finished table, so the same put starts the next migration.)
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  u64 i = 200'000;
  const u64 first = i;
  while (map.snapshot().migration.completed == 0 && i < first + 50'000) {
    map.put(key_of(i), value_of(i));
    ++i;
  }
  const obs::Snapshot s = map.snapshot();
  ASSERT_GE(s.migration.completed, 1u) << "overflowing the target must end the migration";
  for (u64 k = first; k < i; ++k) ASSERT_EQ(map.get(key_of(k)), value_of(k)) << k;
  EXPECT_TRUE(map.debug_verify_tags());
  EXPECT_TRUE(map.debug_verify_group_checksums());
  map.close();
}

TEST(Migration, ShortCopyRetriedAfterFailedMergeCopiesEachKeyOnce) {
  // Regression: a group copy that came up short left its first keys in
  // both tables, and each retry of the drain copied them into the target
  // again. An erase then removed one target copy and the other came back.
  // The one short copy left is into a target group scrub() quarantined:
  // the drain degrades and retries until a reopen lifts the quarantine.
  const std::string path = temp_path("gh_migration_short_copy.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  MapOptions o = online_options(/*groups_per_op=*/0);
  o.scrub_mode = hash::ScrubMode::kSalvage;  // a quarantined group keeps its keys
  std::map<u64, u64> expected;
  u64 moved = 0;
  {
    auto map = GroupHashMap::create(path, o);
    const u64 inserted = fill_until_migrating(map);
    ASSERT_TRUE(map.migration_active());
    ASSERT_EQ(map.migration_cursor(), 0u);
    const auto& old = map.raw_table();
    const auto* target = map.migration_table();
    const u32 gs = old.group_size();
    const auto target_group = [&](u64 key) { return target->home_index(key) / gs; };

    // Source group 0 in copy order (level 1, then level 2). Its first key
    // lands in target group `open_group`; a later key bound for the other
    // target group finds it quarantined, so the copy stops there.
    std::vector<u64> group0;
    for (u32 i = 0; i < gs; ++i) {
      if (old.level1_cell(i).occupied()) group0.push_back(old.level1_cell(i).key());
    }
    for (u32 i = 0; i < gs; ++i) {
      if (old.level2_cell(i).occupied()) group0.push_back(old.level2_cell(i).key());
    }
    ASSERT_GE(group0.size(), 2u);
    const u64 open_group = target_group(group0.front());
    const u64 full_group = open_group == 0 ? old.num_groups() : 0;
    ASSERT_TRUE(std::any_of(group0.begin(), group0.end(),
                            [&](u64 k) { return target_group(k) == full_group; }))
        << "no key of source group 0 is bound for target group " << full_group;
    for (u64 i = 0; i < inserted; ++i) expected[key_of(i)] = value_of(i);

    // A stray byte in an empty cell of each level of that target group
    // fails both its checksums, and the scrub quarantines them.
    for (const bool level2 : {false, true}) {
      bool poked = false;
      for (u32 j = 0; j < gs && !poked; ++j) {
        const u64 cell = full_group * gs + j;
        const hash::Cell16& c = level2 ? target->level2_cell(cell) : target->level1_cell(cell);
        if (c.occupied()) continue;
        const_cast<hash::Cell16&>(c).value = 1;
        poked = true;
      }
      ASSERT_TRUE(poked);
    }
    ASSERT_EQ(map.scrub().groups_quarantined, 2u);

    // Each drain attempt copies the group up to the quarantined one and
    // degrades: the migration stays armed on group 0.
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(map.migrate_step(1), 0u);
      ASSERT_TRUE(map.migration_active());
      ASSERT_EQ(map.migration_cursor(), 0u);
    }
    EXPECT_TRUE(map.degraded());
    moved = group0.front();
    ASSERT_EQ(map.get(moved), expected[moved]);
    std::map<u64, u64> held;
    target->for_each([&](u64 k, u64) { held[k]++; });
    ASSERT_EQ(held.count(moved), 1u) << "the short copy must have moved the first key";
    for (const auto& [k, n] : held) EXPECT_EQ(n, 1u) << "key " << k << " held twice";
    ASSERT_TRUE(map.erase(moved));
    expected.erase(moved);
    EXPECT_FALSE(map.get(moved).has_value()) << "an erased key came back";
    map.close();
  }
  // Quarantine is volatile: the reopen resumes the drain, which now fits.
  auto map = GroupHashMap::open(path, o);
  ASSERT_TRUE(map.migration_active());
  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  EXPECT_FALSE(map.degraded());
  EXPECT_EQ(map.size(), expected.size());
  for (const auto& [k, v] : expected) ASSERT_EQ(map.get(k), v) << k;
  EXPECT_FALSE(map.get(moved).has_value());
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, CleanSplitImageIsVerifiedOnOpen) {
  // Regression: a cleanly closed split image reattached its `.migrate`
  // target unverified, so at-rest corruption in the only copy of the
  // drained groups was served as data.
  const std::string path = temp_path("gh_migration_verify_target.gh");
  const std::string mig = path + ".migrate";
  fs::remove(path);
  fs::remove(mig);
  u64 inserted = 0;
  {
    auto map = GroupHashMap::create(path, online_options(/*groups_per_op=*/0));
    inserted = fill_until_migrating(map);
    ASSERT_TRUE(map.migration_active());
    ASSERT_GT(map.migrate_step(std::max<u64>(map.snapshot().migration.total_groups / 2, 1)), 0u);
    ASSERT_TRUE(map.migration_active());
    map.close();
  }

  // Flip a value byte of the target's first committed cell.
  std::vector<char> image;
  {
    std::ifstream in(mig, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const usize table = map_format::kTableOffset;
  u64 level_cells = 0;
  std::memcpy(&level_cells, image.data() + table + sizeof(u64), sizeof(u64));
  u64 damaged_key = 0;
  for (u64 c = 0; c < 2 * level_cells && damaged_key == 0; ++c) {
    const usize cell = table + 64 + c * sizeof(hash::Cell16);
    u64 word0 = 0;
    std::memcpy(&word0, image.data() + cell, sizeof(u64));
    if ((word0 & hash::Cell16::kOccupiedBit) == 0) continue;
    damaged_key = word0 & ~hash::Cell16::kOccupiedBit;
    image[cell + sizeof(u64)] ^= 0x5a;
  }
  ASSERT_NE(damaged_key, 0u) << "the drained half must hold committed cells";
  {
    std::ofstream out(mig, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }

  MapOptions reopen = online_options(/*groups_per_op=*/0);
  std::vector<u64> lost;
  reopen.on_lost_cell = [&](const hash::LostCell& c) { lost.push_back(c.key.lo); };
  auto map = GroupHashMap::open(path, reopen);
  ASSERT_TRUE(map.migration_active());
  EXPECT_TRUE(map.corruption_detected_on_open());
  EXPECT_NE(std::find(lost.begin(), lost.end(), damaged_key), lost.end())
      << "the damaged key must be reported for re-ingest";
  const u64 i = (damaged_key - 1) / 3;
  ASSERT_EQ(key_of(i), damaged_key);
  const auto got = map.get(damaged_key);
  EXPECT_TRUE(!got || *got == value_of(i)) << "a corrupt value was served: " << *got;
  while (map.migration_active()) map.migrate_step(~0ull);
  EXPECT_LE(map.size(), inserted);
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, ScrubCoversTheTargetMidMigration) {
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  fill_until_migrating(map);
  ASSERT_GT(map.migrate_step(1), 0u);
  ASSERT_TRUE(map.migration_active());
  const u64 old_groups = map.raw_table().num_groups();
  const u64 groups = old_groups + map.migration_table()->num_groups();
  // One lap in two calls, the first crossing from the old table into the
  // target, checks each group of both levels of both tables once.
  hash::ScrubReport lap = map.scrub(old_groups + 1);
  lap += map.scrub(groups - old_groups - 1);
  EXPECT_EQ(lap.groups_checked, 2 * groups);
  EXPECT_TRUE(lap.clean());
  map.close();
}

TEST(Migration, TableCountersNeverGoBackwardsAtFinalize) {
  // Regression: finalize kept only the old table's counters, dropping
  // the queries and inserts user ops made against the target.
  auto map = GroupHashMap::create_in_memory(online_options(/*groups_per_op=*/0));
  const u64 inserted = fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i));
  const obs::Snapshot mid = map.snapshot();
  map.migrate_step(~0ull);
  ASSERT_FALSE(map.migration_active());
  const obs::Snapshot after = map.snapshot();
  EXPECT_GE(after.table.queries, mid.table.queries);
  EXPECT_GE(after.table.query_hits, mid.table.query_hits);
  EXPECT_GE(after.table.inserts, mid.table.inserts);
  map.close();
}

TEST(Migration, OrderedCopyKeepsLevelOneOwnersHome) {
  // A resize copies each group in target-slot order (a stable sort, level-1
  // cells visited first). A key that owned its level-1 home before the
  // resize must own its level-1 home in the bigger table, so reads of the
  // old keys probe level 2 no more than before.
  MapOptions o;
  o.initial_cells = 1024;
  o.group_size = 16;
  o.flush_latency_ns = 0;  // inline drain: the whole resize inside one put
  // The first put that resizes, learned from an identical map.
  u64 resize_at = 0;
  {
    auto probe = GroupHashMap::create_in_memory(o);
    const u64 cap = probe.capacity();
    for (; probe.capacity() == cap; ++resize_at) probe.put(key_of(resize_at), value_of(resize_at));
    --resize_at;
  }
  ASSERT_GT(resize_at, 0u);
  auto map = GroupHashMap::create_in_memory(o);
  for (u64 i = 0; i < resize_at; ++i) map.put(key_of(i), value_of(i));
  const u64 cap = map.capacity();
  std::vector<u64> owners;
  {
    const GroupHashMap::Table& t = map.raw_table();
    for (u64 i = 0; i < t.level_cells(); ++i) {
      if (t.level1_cell(i).occupied()) owners.push_back(t.level1_cell(i).key());
    }
  }
  ASSERT_FALSE(owners.empty());
  const auto level2_probes_of_reads = [&] {
    const u64 before = map.raw_table().stats().level2_probes;
    for (u64 i = 0; i < resize_at; ++i) EXPECT_EQ(map.get(key_of(i)), value_of(i)) << i;
    return map.raw_table().stats().level2_probes - before;
  };
  const u64 probes_before = level2_probes_of_reads();

  map.put(key_of(resize_at), value_of(resize_at));
  ASSERT_EQ(map.capacity(), 2 * cap) << "this put must grow the table";
  ASSERT_FALSE(map.migration_active()) << "and drain it inline";
  const GroupHashMap::Table& t = map.raw_table();
  for (const u64 k : owners) {
    EXPECT_TRUE(t.level1_cell(t.home_index(k)).matches(k)) << "key " << k << " lost its home";
  }
  EXPECT_LE(level2_probes_of_reads(), probes_before);
}

/// The cell holding `key` in `t`.
const hash::Cell16* cell_of(const GroupHashMap::Table& t, u64 key) {
  const u64 home = t.home_index(key);
  if (t.level1_cell(home).matches(key)) return &t.level1_cell(home);
  const u64 first = home - home % t.group_size();
  for (u64 i = first; i < first + t.group_size(); ++i) {
    if (t.level2_cell(i).matches(key)) return &t.level2_cell(i);
  }
  return nullptr;
}

/// Drains a parked migration of a map built with `o` one group at a time.
/// A drained group is cleared with stores only and retired by the cursor
/// advance, so each group must cost exactly its copy (every target line
/// its keys landed on, flushed once, and one fence) plus the cursor
/// word's line and fence. `max_keys` is the most keys one group held.
void expect_drain_flushes_copy_and_cursor_only(const MapOptions& o, u64& max_keys) {
  auto map = GroupHashMap::create_in_memory(o);
  fill_until_migrating(map);
  ASSERT_TRUE(map.migration_active());
  const nvm::PersistStats& stats = map.raw_table().pm().stats();
  const u64 total_groups = map.raw_table().num_groups();
  u64 groups = 0;
  u64 lines = 0;
  u64 fences = 0;
  u64 want_lines = 0;
  u64 want_fences = 0;
  max_keys = 0;
  while (map.migration_active()) {
    std::vector<u64> keys;
    map.raw_table().for_each_in_group(map.migration_cursor(),
                                       [&](u64 k, u64) { keys.push_back(k); });
    max_keys = std::max<u64>(max_keys, keys.size());
    const u64 lines0 = stats.lines_flushed;
    const u64 fences0 = stats.fences;
    ASSERT_EQ(map.migrate_step(1), 1u);
    const GroupHashMap::Table& target =
        map.migration_active() ? *map.migration_table() : map.raw_table();
    std::set<const std::byte*> copied;
    for (const u64 k : keys) {
      const hash::Cell16* c = cell_of(target, k);
      ASSERT_NE(c, nullptr) << k;
      copied.insert(nvm::line_begin(c));
    }
    const u64 group_lines = copied.size() + 1;
    const u64 group_fences = (keys.empty() ? 0 : 1) + 1;
    EXPECT_EQ(stats.lines_flushed - lines0, group_lines) << "group " << groups;
    EXPECT_EQ(stats.fences - fences0, group_fences) << "group " << groups;
    lines += stats.lines_flushed - lines0;
    fences += stats.fences - fences0;
    want_lines += group_lines;
    want_fences += group_fences;
    groups++;
  }
  EXPECT_EQ(groups, total_groups);
  EXPECT_EQ(lines, want_lines);
  EXPECT_EQ(fences, want_fences);
  map.close();
}

TEST(Migration, DrainFlushesCopyWindowsAndCursorOnly) {
  // Groups of 8 cells hold at most 16 keys: less than one put window.
  MapOptions o = online_options(/*groups_per_op=*/0);
  o.initial_cells = 512;
  u64 max_keys = 0;
  expect_drain_flushes_copy_and_cursor_only(o, max_keys);
  EXPECT_LE(max_keys, GroupHashMap::Table::kBatchWindow);
}

TEST(Migration, DrainFlushesEachTargetLineOnceAtDefaultGroupSize) {
  // The default geometry: a group holds far more keys than one put
  // window (Table::kBatchWindow), and the copy still writes each target
  // line once and fences once per group.
  MapOptions o = online_options(/*groups_per_op=*/0);
  o.initial_cells = 4096;
  o.group_size = 256;
  u64 max_keys = 0;
  expect_drain_flushes_copy_and_cursor_only(o, max_keys);
  EXPECT_GT(max_keys, GroupHashMap::Table::kBatchWindow);
}

/// The `n` bytes at `offset` of the file at `path`.
std::vector<char> read_bytes(const std::string& path, usize offset, usize n) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  std::vector<char> bytes(n);
  in.read(bytes.data(), static_cast<std::streamsize>(n));
  return bytes;
}
/// Overwrites the file at `path` with `bytes` from `offset` on.
void write_bytes(const std::string& path, usize offset, const std::vector<char>& bytes) {
  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  out.seekp(static_cast<std::streamoff>(offset));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A drained group's clear is never flushed: the durable cursor retires
/// it. Writing the group's pre-retire bytes back into the old file makes
/// the image a crash (or a clean close) leaves when those stores never
/// reach media. The open must clear the groups below the cursor again, or
/// the erased key comes back, the count and checksums go wrong, and
/// finalize finds the old table not empty.
void reopen_after_lost_retire(bool clean) {
  const std::string path = temp_path("gh_migration_lost_retire.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  MapOptions o = online_options(/*groups_per_op=*/1);
  o.initial_cells = 512;
  std::map<u64, u64> oracle;
  u64 erased = 0;
  u64 updated = 0;
  {
    auto map = GroupHashMap::create(path, o);
    const u64 inserted = fill_until_migrating(map);
    for (u64 i = 0; i < inserted; ++i) oracle[key_of(i)] = value_of(i);
    ASSERT_TRUE(map.migration_active());
    // Group g: the next one to drain with at least two keys.
    const GroupHashMap::Table& old = map.raw_table();
    std::vector<u64> moved;
    u64 g = map.migration_cursor();
    for (; g < old.num_groups(); ++g) {
      moved.clear();
      old.for_each_in_group(g, [&](u64 k, u64) { moved.push_back(k); });
      if (moved.size() >= 2) break;
    }
    ASSERT_GE(moved.size(), 2u);
    ASSERT_LT(g + 3, old.num_groups()) << "the migration must outlive the ops below";
    const usize group_bytes = old.group_size() * sizeof(hash::Cell16);
    const usize level1 =
        map_format::kTableOffset + sizeof(GroupHashMap::Table::Header) + g * group_bytes;
    const usize level2 = level1 + old.level_cells() * sizeof(hash::Cell16);
    const std::vector<char> before1 = read_bytes(path, level1, group_bytes);
    const std::vector<char> before2 = read_bytes(path, level2, group_bytes);
    while (map.migration_cursor() <= g) ASSERT_GT(map.migrate_step(1), 0u);
    write_bytes(path, level1, before1);
    write_bytes(path, level2, before2);

    erased = moved[0];
    updated = moved[1];
    EXPECT_TRUE(map.erase(erased));
    oracle.erase(erased);
    map.put(updated, 999'999);
    oracle[updated] = 999'999;
    ASSERT_TRUE(map.migration_active());
    if (clean) {
      map.close();
    } else {
      map.abandon();
    }
  }
  auto map = GroupHashMap::open(path, o);
  ASSERT_TRUE(map.migration_active());
  EXPECT_EQ(map.recovered_on_open(), !clean);
  EXPECT_TRUE(map.open_scrub_report().clean());
  EXPECT_FALSE(map.get(erased).has_value()) << "erased key back from the stale group";
  EXPECT_EQ(map.get(updated), 999'999u);
  EXPECT_EQ(map.size(), oracle.size());
  EXPECT_TRUE(map.debug_verify_group_checksums());
  EXPECT_TRUE(map.debug_verify_tags());
  for (const auto& [k, v] : oracle) ASSERT_EQ(map.get(k), v) << k;
  // A drain over a broken split image would fail finalize's check.
  ASSERT_FALSE(::testing::Test::HasFailure());
  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  EXPECT_FALSE(map.get(erased).has_value());
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) ASSERT_EQ(map.get(k), v) << k;
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, LostRetireIsClearedAgainOnDirtyOpen) { reopen_after_lost_retire(false); }

TEST(Migration, LostRetireIsClearedAgainOnCleanOpen) { reopen_after_lost_retire(true); }

/// Crashes (SimulatedCrash) at the first occurrence of one named point.
struct CrashAtNamedPoint : nvm::CrashPointPolicy {
  std::string name;
  bool fired = false;
  void on_point(const char* point) override {
    if (!fired && name == point) {
      fired = true;
      throw nvm::SimulatedCrash{};
    }
  }
};

/// The value of a Prometheus sample line `<metric>{...} <value>`.
double prom_sample(const std::string& text, const std::string& metric) {
  const std::string head = "\n" + metric + "{";
  const usize at = text.find(head);
  if (at == std::string::npos) return -1;
  const usize space = text.find(' ', at + head.size());
  return std::stod(text.substr(space + 1, text.find('\n', space) - space - 1));
}

TEST(Migration, KeysMigratedCountsOnlyKeysTheResumedDrainMoves) {
  // Regression: a group copied before a crash was counted again when the
  // reopened process re-ran it, although every one of its keys was
  // already in the target and none moved.
  const std::string path = temp_path("gh_migration_keys_counted.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  u64 inserted = 0;
  {
    auto map = GroupHashMap::create(path, online_options(/*groups_per_op=*/0));
    inserted = fill_until_migrating(map);
    ASSERT_TRUE(map.migration_active());
    CrashAtNamedPoint crash;
    crash.name = "migrate.group.copied";
    bool crashed = false;
    {
      const nvm::ScopedCrashPoints armed(&crash);
      try {
        map.migrate_step(~0ull);
      } catch (const nvm::SimulatedCrash&) {
        crashed = true;
      }
    }
    ASSERT_TRUE(crashed) << "the drain must copy a non-empty group";
    map.abandon();
  }
  auto map = GroupHashMap::open(path, online_options(/*groups_per_op=*/0));
  ASSERT_TRUE(map.migration_active());
  ASSERT_NE(map.migration_table(), nullptr);
  const u64 target_before = map.migration_table()->count();
  ASSERT_GT(target_before, 0u) << "the crashed group's copy is already in the target";
  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  ASSERT_EQ(map.size(), inserted);
  // Every key this process moved raised the target's count by one.
  const u64 moved = map.size() - target_before;
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.migration.keys_migrated, moved);
  EXPECT_EQ(prom_sample(obs::export_prometheus(s), "gh_migration_keys_total"),
            static_cast<double>(moved));
  for (u64 i = 0; i < inserted; ++i) ASSERT_EQ(map.get(key_of(i)), value_of(i)) << i;
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

/// A table formatted as the maps format theirs, over its own anonymous
/// region.
struct ScratchTable {
  using Table = GroupHashMap::Table;
  ScratchTable(nvm::DirectPM& pm, u64 level_cells, u32 group_size, u64 seed)
      : params{.level_cells = level_cells,
               .group_size = group_size,
               .seed = seed,
               .count_mode = hash::CountMode::kRecoveryOnly,
               .group_crc = true,
               .commit_order = hash::CommitOrder::kSameLine},
        region(nvm::NvmRegion::create_anonymous(Table::required_bytes(params))),
        table(pm, region.bytes().first(Table::required_bytes(params)), params, /*format=*/true) {}
  Table::Params params;
  nvm::NvmRegion region;
  Table table;
};

/// Fills `t` with random keys until an insert fails; returns them.
std::map<u64, u64> fill_until_full(GroupHashMap::Table& t, u64 seed) {
  std::map<u64, u64> keys;
  Xoshiro256 rng(seed);
  for (;;) {
    const u64 k = (rng.next() & hash::Cell16::kMaxKey) | 1;
    const u64 v = rng.next();
    if (!t.upsert(k, v)) return keys;
    keys[k] = v;
  }
}

const auto kKeepPayload = [](u64&) { return true; };

TEST(Migration, EveryGroupCopyFitsAnEmptyTarget) {
  // The fit argument place() relies on: a source group feeds only its own
  // target groups, each level-1 key gets its own home there and the
  // level-2 keys are at most one group's worth, so copying any full table
  // group by group into an empty target, doubled or same-size, never
  // comes up short.
  nvm::DirectPM pm(nvm::PersistConfig{});
  for (const u32 gs : {16u, 64u, 256u}) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("group size " + std::to_string(gs) + ", seed " + std::to_string(seed));
      ScratchTable src(pm, 16 * gs, gs, seed);
      const std::map<u64, u64> keys = fill_until_full(src.table, seed);
      ASSERT_EQ(src.table.count(), keys.size());
      for (const u64 fan : {2u, 1u}) {
        ScratchTable dst(pm, fan * 16 * gs, gs, seed);
        u64 total = 0;
        for (u64 g = 0; g < src.table.num_groups(); ++g) {
          u64 copied = 0;
          ASSERT_TRUE(dst.table.copy_group(src.table, g, /*probe=*/false, kKeepPayload, copied))
              << "fan " << fan << ", group " << g;
          total += copied;
        }
        EXPECT_EQ(total, keys.size());
        EXPECT_EQ(dst.table.count(), keys.size());
        std::map<u64, u64> held;
        dst.table.for_each([&](u64 k, u64 v) {
          held[k]++;
          const auto it = keys.find(k);
          ASSERT_NE(it, keys.end()) << "invented key " << k;
          EXPECT_EQ(v, it->second) << k;
        });
        EXPECT_EQ(held.size(), keys.size());
        for (const auto& [k, n] : held) EXPECT_EQ(n, 1u) << "key " << k << " held twice";
      }
    }
  }
}

TEST(Migration, CopyIntoAGroupFilledAheadOfTheCursorComesUpShort) {
  // Negative control for the fit argument: new keys placed in a target
  // group before its source group is copied can leave that copy no room,
  // which is why place() admits such a key only through copy_fits_with.
  nvm::DirectPM pm(nvm::PersistConfig{});
  constexpr u32 gs = 16;
  ScratchTable src(pm, 16 * gs, gs, 7);
  const std::map<u64, u64> keys = fill_until_full(src.table, 7);
  ScratchTable dst(pm, 2 * 16 * gs, gs, 7);
  const auto in_group0 = [&](u64 k) { return dst.table.home_index(k) / gs == 0; };
  ASSERT_TRUE(std::any_of(keys.begin(), keys.end(), [&](const auto& kv) {
    return in_group0(kv.first);
  })) << "source group 0 must feed target group 0";
  // Fill both levels of target group 0 with new keys.
  const auto group_full = [&] {
    for (u32 j = 0; j < gs; ++j) {
      if (!dst.table.level1_cell(j).occupied() || !dst.table.level2_cell(j).occupied()) {
        return false;
      }
    }
    return true;
  };
  u64 refused = 0;
  for (u64 k = 1; !group_full(); k += 2) {
    if (!in_group0(k) || keys.contains(k)) continue;
    if (!dst.table.copy_fits_with(src.table, k)) refused++;
    dst.table.upsert(k, k);
  }
  EXPECT_GT(refused, 0u) << "copy_fits_with must refuse keys that leave the copy no room";
  u64 copied = 0;
  EXPECT_FALSE(dst.table.copy_group(src.table, 0, /*probe=*/false, kKeepPayload, copied));
}

TEST(Migration, ResumedCursorGroupTakesWritesInTheTarget) {
  // A crash at migrate.group.copied leaves the cursor group's keys in both
  // tables, and reads see the target's copy: a put, an increment and an
  // erase of such a key must act on it. A key only the old table holds
  // is updated in place there, adding no cell to the target.
  const std::string path = temp_path("gh_migration_resumed_writes.gh");
  fs::remove(path);
  fs::remove(path + ".migrate");
  const MapOptions o = online_options(/*groups_per_op=*/0);
  u64 inserted = 0;
  {
    auto map = GroupHashMap::create(path, o);
    inserted = fill_until_migrating(map);
    ASSERT_TRUE(map.migration_active());
    CrashAtNamedPoint crash;
    crash.name = "migrate.group.copied";
    const nvm::ScopedCrashPoints armed(&crash);
    EXPECT_THROW(map.migrate_step(~0ull), nvm::SimulatedCrash);
    map.abandon();
  }
  auto map = GroupHashMap::open(path, o);
  ASSERT_TRUE(map.migration_active());
  const GroupHashMap::Table& old = map.raw_table();
  const GroupHashMap::Table& target = *map.migration_table();
  const u64 cursor = map.migration_cursor();
  u64 both = 0;
  old.for_each_in_group(cursor, [&](u64 k, u64) {
    if (both == 0 && cell_of(target, k) != nullptr) both = k;
  });
  ASSERT_NE(both, 0u) << "the cursor group's copy must be in the target";
  u64 only_old = 0;
  for (u64 g = cursor + 1; g < old.num_groups() && only_old == 0; ++g) {
    old.for_each_in_group(g, [&](u64 k, u64) {
      if (only_old == 0 && cell_of(target, k) == nullptr) only_old = k;
    });
  }
  ASSERT_NE(only_old, 0u);
  const u64 target_count = target.count();
  const u64 old_count = old.count();

  map.put(both, 1111);
  EXPECT_EQ(map.get(both), 1111u);
  EXPECT_EQ(map.increment(both, 5), 1116u);
  EXPECT_EQ(map.get(both), 1116u);
  map.put(only_old, 2222);
  EXPECT_EQ(map.get(only_old), 2222u);
  EXPECT_EQ(map.migration_table()->count(), target_count) << "an update adds no target cell";
  EXPECT_EQ(map.raw_table().count(), old_count);
  EXPECT_TRUE(map.erase(both));
  EXPECT_FALSE(map.get(both).has_value());

  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  EXPECT_FALSE(map.get(both).has_value()) << "the resumed copy brought the erased key back";
  EXPECT_EQ(map.get(only_old), 2222u);
  EXPECT_EQ(map.size(), inserted - 1);
  for (u64 i = 0; i < inserted; ++i) {
    const u64 k = key_of(i);
    if (k != both && k != only_old) {
      ASSERT_EQ(map.get(k), value_of(i)) << k;
    }
  }
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(Migration, StringCompactionPutsFinishItWhenTheArenaRoomRunsOut) {
  // During a migration new records may take only the target arena's put
  // room: the rest is kept for the records the copies still move. Puts
  // into drained groups use the room up; the put that finds it gone
  // finishes the compaction, whose copies all fit.
  auto map = PersistentStringMap::create_in_memory(
      {.map = {.initial_cells = 1024, .group_size = 16, .migrate_groups_per_op = 0},
       .arena_bytes_per_cell = 32});
  const auto key = [](u64 i) { return "k" + std::to_string(i) + std::string(200, 'x'); };
  std::map<std::string, u64> oracle;
  for (u64 i = 0; !map.migration_active(); ++i) {
    ASSERT_LT(i, 10'000u);
    map.put(key(i), i);
    oracle[key(i)] = i;
  }
  ASSERT_EQ(map.capacity(), 2 * 1024u) << "a full arena starts a same-size migration";
  ASSERT_EQ(map.migrate_step(16), 16u);
  const u64 cursor = map.snapshot().migration.cursor;
  const auto drained = [&](const std::string& k) {
    const PersistentStringMap::ReadSnapshot snap = map.read_snapshot();
    const auto& v = snap.view;
    if (v.old_tab1 == nullptr) return false;
    return (v.hash(PersistentStringMap::fingerprint(k)) & v.old_mask) / v.old_group_size < cursor;
  };
  u64 puts = 0;
  for (u64 i = 100'000; i < 200'000; ++i) {
    if (!drained(key(i))) continue;
    map.put(key(i), i);
    oracle[key(i)] = i;
    ++puts;
    if (map.snapshot().migration.completed > 0) break;
  }
  const obs::Snapshot s = map.snapshot();
  ASSERT_EQ(s.migration.completed, 1u) << "the put that ran out of room finishes the compaction";
  EXPECT_GT(puts, 1u);
  EXPECT_EQ(s.lifecycle.compact_failures, 0u) << "a copy came up short";
  EXPECT_FALSE(map.degraded());
  while (map.migration_active()) ASSERT_GT(map.migrate_step(~0ull), 0u);
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) ASSERT_EQ(map.get(k), v) << k.substr(0, 12);
}

}  // namespace
}  // namespace gh
