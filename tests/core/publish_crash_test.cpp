// Crash-at-every-publish-step recovery for the file-publishing paths.
//
// A GroupHashMap resize publishes a `.migrate` target (create → msync →
// fsync(parent dir)), arms and advances a cursor (one msync per group),
// and finally renames the drained target over the map (msync → rename →
// fsync(parent dir)). PersistentStringMap::compact() is the same
// migration into a same-size target with a fresh arena. Those steps
// live in the filesystem, outside the ShadowPM crash
// simulator, so this suite drives them through FaultFs
// (src/nvm/fault_fs.hpp) instead:
//
//   1. a record run traces every filesystem step the operation performs;
//   2. one trial per step boundary replays the identical operation and
//      crashes (SimulatedCrash) before that step, leaving exactly the
//      directory state a power failure there would leave;
//   3. the map is reopened and must equal a sequential oracle, with zero
//      leaked temp files.
//
// A crash before a temp file's first write-back additionally gets a
// "torn temp file" variant: its content is overwritten with garbage (a
// real power failure there loses the page-cache writes), and open() must
// still reclaim it and trust only the published file. Injected *step
// failures* (syscall errors, process survives) exercise the cleanup
// paths: a failed rename must leave the map fully usable and no temp
// file behind once the publish succeeds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "nvm/fault_fs.hpp"
#include "obs/flight_recorder.hpp"
#include "support/temp_path.hpp"

namespace gh {
namespace {

namespace fs = std::filesystem;

using gh::test::temp_path;

/// Forensics half of every crash trial: the reopened map's flight scan
/// must name the exact lifecycle op that was mid-publish, stranded at
/// `phase` — kStart before the op's publish mark, kPublish after it.
template <class Map>
void expect_in_flight(const Map& map, obs::OpKind kind, obs::FlightPhase phase) {
  if (!obs::kEnabled) return;
  const obs::FlightScan& scan = map.flight_scan_on_open();
  ASSERT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.records_torn, 0u);
  const obs::InFlightOp* found = nullptr;
  for (const obs::InFlightOp& op : scan.in_flight) {
    if (op.kind == kind) found = &op;
  }
  ASSERT_NE(found, nullptr) << "recorder must name the " << obs::op_kind_name(kind)
                            << " that died mid-publish";
  EXPECT_EQ(found->phase, phase);
  EXPECT_GE(map.open_recovery_report().in_flight_ops, 1u);
}

void write_junk_file(const std::string& path, usize bytes = 4096) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  for (usize i = 0; i < bytes; ++i) out.put(static_cast<char>(0xCB));
}

/// Overwrite an existing file's content with garbage, preserving its
/// size: the directory state of a crash that lost the write-back.
void corrupt_file(const std::string& path) {
  const auto size = fs::file_size(path);
  std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(out.good());
  for (uintmax_t i = 0; i < size; ++i) out.put(static_cast<char>(0xCB));
}

// ---------------------------------------------------------------------------
// GroupHashMap resize

constexpr u64 kExpandKeys = 300;  // forces several resizes from 64 cells
u64 gh_key(u64 i) { return 2 * i + 1; }
u64 gh_value(u64 i) { return i * 31 + 7; }

MapOptions small_map_options() {
  return {.initial_cells = 64, .group_size = 8, .flush_latency_ns = 0};
}

/// Runs the deterministic resize workload under `policy`. Returns the
/// number of puts committed before a SimulatedCrash (kExpandKeys when
/// none fired).
u64 run_expand_workload(const std::string& path, nvm::CrashScheduleFs& policy) {
  auto map = GroupHashMap::create(path, small_map_options());
  const nvm::ScopedFsPolicy installed(&policy);
  u64 committed = 0;
  for (u64 i = 0; i < kExpandKeys; ++i) {
    try {
      map.put(gh_key(i), gh_value(i));
    } catch (const nvm::SimulatedCrash&) {
      map.abandon();
      return committed;
    }
    committed = i + 1;
  }
  map.abandon();
  return committed;
}

/// Position of step `k` within its resize, counted from the target's
/// create: 0-2 publish the target, 3 arms the cursor, then one cursor
/// msync per group, then the finalize msync, rename and dir fsync.
usize step_in_resize(const std::vector<nvm::FsStep>& schedule, usize k) {
  usize first = k;
  while (schedule[first].op != nvm::FsOp::kCreate) --first;
  return k - first;
}

TEST(PublishCrash, ExpandCrashAtEveryStepRecoversToOracle) {
  const std::string path = temp_path("gh_publish_crash_expand.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);

  // Record run: trace the full schedule, no crashes.
  nvm::CrashScheduleFs recorder;
  ASSERT_EQ(run_expand_workload(path, recorder), kExpandKeys);
  const auto schedule = recorder.trace;
  ASSERT_EQ(schedule[0].op, nvm::FsOp::kCreate) << "workload must trigger a resize";
  usize resizes = 0;
  for (usize i = 0; i < schedule.size(); ++i) {
    if (schedule[i].op == nvm::FsOp::kCreate) {
      // Each resize starts with the durable target publish, then arms
      // the cursor in the map file (whose mapping keeps the name it was
      // created under, so its msync steps name `.migrate` after the
      // first resize)...
      ++resizes;
      ASSERT_LT(i + 3, schedule.size());
      EXPECT_EQ(schedule[i + 0].path, tmp);
      EXPECT_EQ(schedule[i + 1].op, nvm::FsOp::kSyncData);
      EXPECT_EQ(schedule[i + 1].path, tmp);
      EXPECT_EQ(schedule[i + 2].op, nvm::FsOp::kSyncDir);
      EXPECT_EQ(schedule[i + 3].op, nvm::FsOp::kSyncData);
    } else if (schedule[i].op == nvm::FsOp::kRename) {
      // ...and ends with the finalize: msync, rename over the map, fsync.
      ASSERT_LT(i + 1, schedule.size());
      EXPECT_EQ(schedule[i - 1].op, nvm::FsOp::kSyncData);
      EXPECT_EQ(schedule[i - 1].path, tmp);
      EXPECT_EQ(schedule[i].path, tmp);
      EXPECT_EQ(schedule[i].path2, path);
      EXPECT_EQ(schedule[i + 1].op, nvm::FsOp::kSyncDir);
      --resizes;
    }
  }
  EXPECT_EQ(resizes, 0u) << "every resize started must finish inside the workload";

  // One trial per step boundary; a crash before the target's first msync
  // (its cursor not yet armed) additionally runs a torn-temp-file variant.
  for (usize k = 0; k < schedule.size(); ++k) {
    const usize in_resize = step_in_resize(schedule, k);
    const bool torn_variant_too = in_resize == 1;
    for (const bool torn : {false, true}) {
      if (torn && !torn_variant_too) continue;
      SCOPED_TRACE("crash before step " + std::to_string(k) + " (" +
                   nvm::to_string(schedule[k].op) + (torn ? ", torn tmp)" : ")"));
      fs::remove(path);
      fs::remove(tmp);

      nvm::CrashScheduleFs policy;
      policy.crash_at = k;
      const u64 committed = run_expand_workload(path, policy);
      ASSERT_LT(committed, kExpandKeys) << "schedule replay must crash";
      if (torn) {
        ASSERT_TRUE(fs::exists(tmp));
        corrupt_file(tmp);
      }

      auto map = GroupHashMap::open(path);
      EXPECT_TRUE(map.recovered_on_open());
      // The resize's publish mark follows the cursor arm (step 3).
      expect_in_flight(map, obs::OpKind::kExpand,
                       in_resize <= 3 ? obs::FlightPhase::kStart : obs::FlightPhase::kPublish);
      // A target that survived the open is live (its cursor was armed and
      // the drain resumed); one whose cursor was never armed was reclaimed.
      EXPECT_EQ(map.migration_active(), fs::exists(tmp));
      while (map.migration_active()) map.migrate_step(~0ull);
      EXPECT_FALSE(fs::exists(tmp)) << "no resize file may outlive the drain";
      EXPECT_EQ(map.size(), committed);
      for (u64 i = 0; i < committed; ++i) {
        const auto got = map.get(gh_key(i));
        ASSERT_TRUE(got.has_value()) << "key " << i;
        EXPECT_EQ(*got, gh_value(i)) << "key " << i;
      }
      EXPECT_FALSE(map.get(gh_key(committed)).has_value())
          << "the interrupted put must not have half-landed";

      // The reopened map must keep working, including further resizes.
      for (u64 i = committed; i < kExpandKeys; ++i) map.put(gh_key(i), gh_value(i));
      EXPECT_EQ(map.size(), kExpandKeys);
      map.close();
    }
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(PublishCrash, ExpandRenameFailureCleansTempAndKeepsMapUsable) {
  // A failed finalize rename (the process survives) must not throw away
  // the drained `.migrate` target — it holds the only copy of the moved
  // keys. The map degrades, keeps serving from the split image, and the
  // next op's retry publishes it.
  const std::string path = temp_path("gh_publish_fail_expand.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);

  nvm::CrashScheduleFs recorder;
  ASSERT_EQ(run_expand_workload(path, recorder), kExpandKeys);
  usize first_rename = 0;
  while (recorder.trace[first_rename].op != nvm::FsOp::kRename) first_rename++;

  fs::remove(path);
  fs::remove(tmp);
  auto map = GroupHashMap::create(path, small_map_options());
  nvm::CrashScheduleFs policy;
  policy.fail_at = first_rename;
  {
    const nvm::ScopedFsPolicy installed(&policy);
    for (u64 i = 0; i < kExpandKeys; ++i) map.put(gh_key(i), gh_value(i));
  }
  const obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.lifecycle.expand_failures, 1u);
  EXPECT_NE(map.last_expand_error().find("publish migrated"), std::string::npos)
      << map.last_expand_error();
  EXPECT_FALSE(map.degraded()) << "the retried publish must have succeeded";
  EXPECT_FALSE(map.migration_active());
  EXPECT_FALSE(fs::exists(tmp)) << "the retried publish must not leak the temp file";
  EXPECT_EQ(map.size(), kExpandKeys);
  for (u64 i = 0; i < kExpandKeys; ++i) EXPECT_EQ(*map.get(gh_key(i)), gh_value(i));
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(PublishCrash, OpenReclaimsStaleExpandOrphan) {
  // A `.migrate` target is not authoritative without an armed cursor:
  // its start crashed before the cursor arm.
  const std::string path = temp_path("gh_orphan_expand.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);
  {
    auto map = GroupHashMap::create(path, small_map_options());
    for (u64 i = 0; i < 20; ++i) map.put(gh_key(i), gh_value(i));
    map.close();
  }
  write_junk_file(tmp);
  {
    auto map = GroupHashMap::open(path);
    EXPECT_EQ(map.orphans_reclaimed_on_open(), 1u);
    EXPECT_FALSE(fs::exists(tmp));
    EXPECT_EQ(map.size(), 20u);
    for (u64 i = 0; i < 20; ++i) EXPECT_EQ(*map.get(gh_key(i)), gh_value(i));
    map.close();
  }
  // create() over the same path also clears a stale orphan.
  write_junk_file(tmp);
  {
    auto map = GroupHashMap::create(path, small_map_options());
    EXPECT_FALSE(fs::exists(tmp));
    map.close();
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(PublishCrash, CrashDuringOrphanReclaimIsIdempotent) {
  const std::string path = temp_path("gh_orphan_crash.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);
  {
    auto map = GroupHashMap::create(path, small_map_options());
    map.put(gh_key(1), gh_value(1));
    map.close();
  }
  write_junk_file(tmp);
  {
    nvm::CrashScheduleFs policy;
    policy.crash_at = 0;  // the kRemove of the orphan
    const nvm::ScopedFsPolicy installed(&policy);
    EXPECT_THROW((void)GroupHashMap::open(path), nvm::SimulatedCrash);
  }
  EXPECT_TRUE(fs::exists(tmp)) << "crash before the unlink leaves the orphan";
  auto map = GroupHashMap::open(path);
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(*map.get(gh_key(1)), gh_value(1));
  map.close();
  fs::remove(path);
}

TEST(PublishCrash, CorruptSuperblockIsRejectedNotTrusted) {
  const std::string path = temp_path("gh_publish_corrupt_sb.gh");
  fs::remove(path);
  {
    auto map = GroupHashMap::create(path, small_map_options());
    map.put(gh_key(1), gh_value(1));
    map.close();
  }
  // Forge table bounds that point past the mapped file. The magic and
  // version stay valid, so only the geometry validation can catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const u64 huge = 1ull << 40;
    f.seekp(5 * sizeof(u64));  // Superblock::table_bytes
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW((void)GroupHashMap::open(path), std::runtime_error);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// PersistentStringMap::compact(): a same-size migration into a fresh
// arena, through the resize's own steps (target publish, cursor, finalize
// rename).

StringMapOptions small_string_options() {
  return {.map = {.initial_cells = 64, .group_size = 8, .flush_latency_ns = 0}};
}

std::string sm_key(u64 i) { return "key-" + std::to_string(i); }

/// Builds the deterministic pre-compaction state: 40 keys live, 20
/// erased (arena garbage for the compaction to reclaim).
std::map<std::string, u64> build_string_map(PersistentStringMap& map) {
  std::map<std::string, u64> oracle;
  for (u64 i = 0; i < 60; ++i) {
    map.put(sm_key(i), i * 13 + 1);
    oracle[sm_key(i)] = i * 13 + 1;
  }
  for (u64 i = 0; i < 60; i += 3) {
    map.erase(sm_key(i));
    oracle.erase(sm_key(i));
  }
  return oracle;
}

void verify_string_map(PersistentStringMap& map, const std::map<std::string, u64>& oracle) {
  EXPECT_EQ(map.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    const auto got = map.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

/// The fs schedule of one compact() of the built map.
std::vector<nvm::FsStep> record_compaction(const std::string& path) {
  nvm::CrashScheduleFs recorder;
  auto map = PersistentStringMap::create(path, small_string_options());
  build_string_map(map);
  {
    const nvm::ScopedFsPolicy installed(&recorder);
    map.compact();
  }
  EXPECT_FALSE(map.migration_active());
  map.abandon();
  return recorder.trace;
}

TEST(PublishCrash, CompactCrashAtEveryStepRecoversToOracle) {
  const std::string path = temp_path("gh_publish_crash_compact.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);

  // Record run: a compaction is one resize — target create, msync and
  // dir fsync, the cursor arm, one cursor msync per group, then the
  // finalize msync, rename over the map and dir fsync.
  const auto schedule = record_compaction(path);
  ASSERT_GE(schedule.size(), 7u);
  EXPECT_EQ(schedule[0].op, nvm::FsOp::kCreate);
  EXPECT_EQ(schedule[0].path, tmp);
  EXPECT_EQ(schedule[1].op, nvm::FsOp::kSyncData);
  EXPECT_EQ(schedule[2].op, nvm::FsOp::kSyncDir);
  const nvm::FsStep& rename = schedule[schedule.size() - 2];
  EXPECT_EQ(rename.op, nvm::FsOp::kRename);
  EXPECT_EQ(rename.path, tmp);
  EXPECT_EQ(rename.path2, path);
  EXPECT_EQ(schedule.back().op, nvm::FsOp::kSyncDir);

  for (usize k = 0; k < schedule.size(); ++k) {
    // A crash before the target's first msync (its cursor not yet armed)
    // additionally runs a torn-temp-file variant.
    for (const bool torn : {false, true}) {
      if (torn && k != 1) continue;
      SCOPED_TRACE("crash before step " + std::to_string(k) + " (" +
                   nvm::to_string(schedule[k].op) + (torn ? ", torn tmp)" : ")"));
      fs::remove(path);
      fs::remove(tmp);

      std::map<std::string, u64> oracle;
      {
        auto map = PersistentStringMap::create(path, small_string_options());
        oracle = build_string_map(map);
        nvm::CrashScheduleFs policy;
        policy.crash_at = k;
        const nvm::ScopedFsPolicy installed(&policy);
        EXPECT_THROW(map.compact(), nvm::SimulatedCrash);
        map.abandon();
      }
      if (torn) {
        ASSERT_TRUE(fs::exists(tmp));
        corrupt_file(tmp);
      }

      auto map = PersistentStringMap::open(path, small_string_options());
      EXPECT_TRUE(map.recovered_on_open());
      // The compaction's publish mark follows the cursor arm (step 3).
      expect_in_flight(map, obs::OpKind::kCompact,
                       k <= 3 ? obs::FlightPhase::kStart : obs::FlightPhase::kPublish);
      // A target that survived the open is live (its cursor was armed);
      // one whose cursor was never armed was reclaimed.
      EXPECT_EQ(map.migration_active(), fs::exists(tmp));
      for (const auto& [key, value] : oracle) EXPECT_EQ(map.get(key), value) << key;
      while (map.migration_active()) map.migrate_step(~0ull);
      EXPECT_FALSE(fs::exists(tmp)) << "no resize file may outlive the drain";
      verify_string_map(map, oracle);

      // The reopened map keeps working — including a clean compaction.
      map.compact();
      verify_string_map(map, oracle);
      const auto arena = map.arena_usage();
      EXPECT_EQ(arena.used, arena.live);
      EXPECT_FALSE(fs::exists(tmp));
      map.close();
    }
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(PublishCrash, CompactRenameFailureCleansTempAndKeepsMapUsable) {
  // A failed finalize rename (the process survives) must not throw away
  // the drained `.migrate` target: the map degrades, keeps serving from
  // the split image, and the next compact() publishes it.
  const std::string path = temp_path("gh_publish_fail_compact.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);
  const auto schedule = record_compaction(path);
  usize rename = 0;
  while (schedule[rename].op != nvm::FsOp::kRename) rename++;

  fs::remove(path);
  fs::remove(tmp);
  auto map = PersistentStringMap::create(path, small_string_options());
  const auto oracle = build_string_map(map);
  {
    nvm::CrashScheduleFs policy;
    policy.fail_at = rename;
    const nvm::ScopedFsPolicy installed(&policy);
    map.compact();
  }
  EXPECT_TRUE(map.degraded());
  EXPECT_NE(map.last_expand_error().find("publish migrated"), std::string::npos)
      << map.last_expand_error();
  EXPECT_EQ(map.snapshot().lifecycle.compact_failures, 1u);
  EXPECT_TRUE(map.migration_active());
  verify_string_map(map, oracle);
  map.compact();  // fault gone: the retry publishes the drained target
  EXPECT_FALSE(map.degraded());
  EXPECT_FALSE(map.migration_active());
  EXPECT_FALSE(fs::exists(tmp)) << "the retried publish must not leak the temp file";
  verify_string_map(map, oracle);
  map.close();
  fs::remove(path);
  fs::remove(path + ".flight");
}

TEST(PublishCrash, StringMapOpenReclaimsStaleCompactOrphan) {
  // A compaction target whose start crashed before the cursor arm is
  // never authoritative: open() reclaims it.
  const std::string path = temp_path("gh_orphan_compact.gh");
  const std::string tmp = path + ".migrate";
  fs::remove(path);
  fs::remove(tmp);
  std::map<std::string, u64> oracle;
  {
    auto map = PersistentStringMap::create(path, small_string_options());
    oracle = build_string_map(map);
    map.close();
  }
  write_junk_file(tmp);
  {
    auto map = PersistentStringMap::open(path, small_string_options());
    EXPECT_EQ(map.orphans_reclaimed_on_open(), 1u);
    EXPECT_FALSE(fs::exists(tmp));
    verify_string_map(map, oracle);
    map.close();
  }
  fs::remove(path);
  fs::remove(path + ".flight");
}

}  // namespace
}  // namespace gh
