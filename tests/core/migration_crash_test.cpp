// Crash-at-every-step fuzz for the resize migration, run both drained a
// group per op and drained inline (the default), against GroupHashMap
// and against PersistentStringMap growing (table full) and compacting
// (arena full), whose records move into the target file's arena.
//
// The migration's durable steps live in two registries:
//
//   * named crash points (src/nvm/crash_point.hpp) — the PM-store steps
//     between filesystem boundaries: target formatted, cursor armed,
//     group copied, group erased, cursor advanced, finalize hand-off,
//     retire;
//   * FaultFs steps (src/nvm/fault_fs.hpp) — the filesystem boundaries
//     themselves: target create/msync/dir-fsync, cursor-page msync,
//     finalize rename.
//
// The sweep is the publish_crash_test recipe applied to both: one record
// run traces every step a seeded mixed workload performs, then one trial
// per step boundary replays the identical workload, crashes there
// (SimulatedCrash → abandon(), exactly a power failure), reopens, and
// compares against a sequential oracle. Acceptance is zero lost
// committed ops: every op whose call returned before the crash must be
// visible after reopen; the single in-flight op may have landed or not
// (atomically — never torn). Reopening mid-migration must also leave
// the fingerprint tags and per-group CRCs of BOTH tables coherent, and
// the resumed drain must finish to a single table with the same
// contents.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/map_format.hpp"
#include "core/string_map.hpp"
#include "nvm/crash_point.hpp"
#include "nvm/fault_fs.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

namespace fs = std::filesystem;

using gh::test::temp_path;

MapOptions migration_options(u32 groups_per_op = 1) {
  MapOptions o;
  o.initial_cells = 64;  // several migrations within a few hundred keys
  o.group_size = 8;
  o.flush_latency_ns = 0;
  o.migrate_groups_per_op = groups_per_op;
  return o;
}

/// The sweeps' drain settings: one group per op (the split image lives
/// across many ops) and the default inline drain (a whole resize inside
/// one op).
constexpr u32 kDrainModes[] = {1, kDrainAllGroups};

constexpr u64 kOpsPerSeed = 400;
constexpr u64 kSeeds = 8;
constexpr u64 kStringSeeds = 3;

/// What a sweep runs against. The string map runs twice: with short
/// keys its table fills first (a double-size migration), with long keys
/// its arena does (a same-size compaction into a fresh arena).
enum class Subject { kGroupHashMap, kStringGrow, kStringCompact };

std::string subject_name(Subject s) {
  switch (s) {
    case Subject::kGroupHashMap: return "GroupHashMap";
    case Subject::kStringGrow: return "PersistentStringMap/grow";
    case Subject::kStringCompact: return "PersistentStringMap/compact";
  }
  return "?";
}

/// Key `k` as the string map stores it: "k<k>", padded with 'x' so a
/// record of the compaction subject is ~10x an arena's share per cell.
std::string string_key(Subject s, u64 k) {
  return "k" + std::to_string(k) + std::string(s == Subject::kStringCompact ? 200 : 0, 'x');
}

// The sweep's ops on either map type.
GroupHashMap create_map(const std::string& path, Subject, u32 per_op, GroupHashMap*) {
  return GroupHashMap::create(path, migration_options(per_op));
}
PersistentStringMap create_map(const std::string& path, Subject, u32 per_op,
                               PersistentStringMap*) {
  return PersistentStringMap::create(path, {.map = migration_options(per_op)});
}
GroupHashMap open_map(const std::string& path, u32 per_op, GroupHashMap*) {
  return GroupHashMap::open(path, migration_options(per_op));
}
PersistentStringMap open_map(const std::string& path, u32 per_op, PersistentStringMap*) {
  return PersistentStringMap::open(path, {.map = migration_options(per_op)});
}
std::optional<u64> get(GroupHashMap& m, Subject, u64 k) { return m.get(k); }
std::optional<u64> get(PersistentStringMap& m, Subject s, u64 k) {
  return m.get(string_key(s, k));
}
void put(GroupHashMap& m, Subject, u64 k, u64 v) { m.put(k, v); }
void put(PersistentStringMap& m, Subject s, u64 k, u64 v) { m.put(string_key(s, k), v); }
void erase(GroupHashMap& m, Subject, u64 k) { m.erase(k); }
void erase(PersistentStringMap& m, Subject s, u64 k) { m.erase(string_key(s, k)); }
void increment(GroupHashMap& m, Subject, u64 k, u64 d) { m.increment(k, d); }
void increment(PersistentStringMap& m, Subject s, u64 k, u64 d) {
  put(m, s, k, get(m, s, k).value_or(0) + d);
}
template <class Fn>
void for_each_key(const GroupHashMap& m, Fn&& fn) {
  m.for_each(fn);
}
template <class Fn>
void for_each_key(const PersistentStringMap& m, Fn&& fn) {
  m.for_each([&](std::string_view key, u64 v) {
    fn(std::stoull(std::string(key.substr(1))), v);
  });
}

enum class WorkOp { kPut, kErase, kIncrement };

struct WorkStep {
  WorkOp op;
  u64 key;
  u64 value;
};

/// The seeded mixed workload, shared by record and replay runs: mostly
/// inserts (so the map keeps outgrowing itself), a sprinkle of erases
/// and increments against already-written keys.
std::vector<WorkStep> make_workload(u64 seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<WorkStep> steps;
  steps.reserve(kOpsPerSeed);
  u64 next_key = 1;
  for (u64 i = 0; i < kOpsPerSeed; ++i) {
    const u64 roll = rng.next_below(10);
    if (roll < 7 || next_key < 4) {
      steps.push_back({WorkOp::kPut, next_key, rng.next() | 1});
      ++next_key;
    } else if (roll < 9) {
      steps.push_back({WorkOp::kIncrement, 1 + rng.next_below(next_key - 1), 3});
    } else {
      steps.push_back({WorkOp::kErase, 1 + rng.next_below(next_key - 1), 0});
    }
  }
  return steps;
}

void apply_to_oracle(std::map<u64, u64>& oracle, const WorkStep& s) {
  switch (s.op) {
    case WorkOp::kPut: oracle[s.key] = s.value; break;
    case WorkOp::kErase: oracle.erase(s.key); break;
    case WorkOp::kIncrement: oracle[s.key] += s.value; break;
  }
}

struct RunResult {
  std::map<u64, u64> oracle;        ///< committed ops only
  std::optional<WorkStep> in_flight;  ///< the op the crash interrupted
  bool crashed = false;
  bool grew = false;       ///< a resize into a bigger table started
  bool compacted = false;  ///< a same-size resize started
};

/// Replays the workload for `seed` against a fresh file map at `path`.
/// Returns the committed-op oracle; when a crash fires, also which op
/// was in flight.
template <class Map>
RunResult run_workload(const std::string& path, Subject subject, u64 seed, u32 groups_per_op) {
  RunResult r;
  std::optional<Map> map;
  try {
    map.emplace(create_map(path, subject, groups_per_op, static_cast<Map*>(nullptr)));
  } catch (const nvm::SimulatedCrash&) {
    // Crash during create(): nothing was committed, nothing to verify.
    r.crashed = true;
    return r;
  }
  for (const WorkStep& s : make_workload(seed)) {
    const bool was_active = map->migration_active();
    const u64 version = map->structure_version();
    const u64 capacity = map->capacity();
    try {
      switch (s.op) {
        case WorkOp::kPut: put(*map, subject, s.key, s.value); break;
        case WorkOp::kErase: erase(*map, subject, s.key); break;
        case WorkOp::kIncrement: increment(*map, subject, s.key, s.value); break;
      }
    } catch (const nvm::SimulatedCrash&) {
      r.in_flight = s;
      r.crashed = true;
      map->abandon();
      return r;
    }
    apply_to_oracle(r.oracle, s);
    if (!was_active && map->structure_version() != version) {
      // A resize started in this op: its target is what the capacity
      // grew by while it drains, or all of it once drained.
      const u64 target =
          map->migration_active() ? map->capacity() - capacity : map->capacity();
      (target == capacity ? r.compacted : r.grew) = true;
    }
  }
  map->abandon();  // keep the dirty image: reopen must run recovery
  return r;
}

/// The acceptance check: the reopened map equals the oracle, except the
/// in-flight op which may have (atomically) landed. Before the drain
/// finishes, a group interrupted between copy and erase may hold its
/// keys in BOTH tables — a benign duplicate (same value, masked by
/// new-first reads) — so the exact-cardinality check only applies once
/// `drained` collapses the image back to one table.
template <class Map>
void verify_against_oracle(Map& map, Subject subject, const RunResult& r, bool drained) {
  std::map<u64, u64> expected = r.oracle;
  std::map<u64, u64> with_in_flight = r.oracle;
  if (r.in_flight) apply_to_oracle(with_in_flight, *r.in_flight);
  const u64 in_flight_key = r.in_flight ? r.in_flight->key : 0;

  for (const auto& [k, v] : expected) {
    if (r.in_flight && k == in_flight_key) continue;
    const auto got = get(map, subject, k);
    ASSERT_TRUE(got.has_value()) << "lost committed key " << k;
    EXPECT_EQ(*got, v) << "committed key " << k;
  }
  if (r.in_flight) {
    // Either pre-op or post-op state for the interrupted key — only.
    const auto got = get(map, subject, in_flight_key);
    const auto holds = [&](const std::map<u64, u64>& state) {
      const auto it = state.find(in_flight_key);
      return it == state.end() ? !got.has_value() : got == it->second;
    };
    EXPECT_TRUE(holds(expected) || holds(with_in_flight))
        << "in-flight key " << in_flight_key << " is torn: "
        << (got ? std::to_string(*got) : "absent");
  }
  // No resurrected or invented keys either.
  for_each_key(map, [&](u64 k, u64 v) {
    if (r.in_flight && k == in_flight_key) return;
    auto it = expected.find(k);
    if (it == expected.end()) {
      ADD_FAILURE() << "unexpected key " << k << " after reopen";
    } else {
      EXPECT_EQ(v, it->second) << "key " << k;
    }
  });
  if (drained) {
    const u64 n = map.size();
    EXPECT_TRUE(n == expected.size() || n == with_in_flight.size())
        << "size " << n << " matches neither oracle (" << expected.size() << ") nor "
        << "oracle+in-flight (" << with_in_flight.size() << ")";
  }
}

template <class Map>
void run_trial(const std::string& path, Subject subject, const RunResult& r,
               u32 groups_per_op) {
  auto map = open_map(path, groups_per_op, static_cast<Map*>(nullptr));
  // Mid-migration integrity: tags and CRCs of both halves must verify
  // before any further traffic.
  EXPECT_TRUE(map.debug_verify_tags());
  EXPECT_TRUE(map.debug_verify_group_checksums());
  verify_against_oracle(map, subject, r, /*drained=*/false);
  // The resumed drain must finish and still hold the oracle.
  while (map.migration_active()) {
    ASSERT_GT(map.migrate_step(~0ull), 0u) << "resumed migration must progress";
  }
  EXPECT_FALSE(fs::exists(path + ".migrate"));
  verify_against_oracle(map, subject, r, /*drained=*/true);
  map.close();
}

void remove_all(const std::string& path) {
  fs::remove(path);
  fs::remove(path + ".migrate");
  fs::remove(path + ".flight");
}

/// The recorded run of a subject must exercise the resize kind it names.
void expect_resize_kinds(Subject subject, const RunResult& full) {
  EXPECT_TRUE(full.grew || subject == Subject::kStringCompact) << subject_name(subject);
  EXPECT_TRUE(full.compacted || subject != Subject::kStringCompact) << subject_name(subject);
}

template <class Map>
void sweep_crash_points(Subject subject, const std::string& path, u64 first_seed,
                        u64 end_seed) {
  for (const u32 per_op : kDrainModes) {
    for (u64 seed = first_seed; seed < end_seed; ++seed) {
      remove_all(path);
      // Record run: count the PM-store crash points this seed hits.
      nvm::TracePointPolicy tracer;
      {
        const nvm::ScopedCrashPoints installed(&tracer);
        const RunResult full = run_workload<Map>(path, subject, seed, per_op);
        ASSERT_FALSE(full.crashed);
        expect_resize_kinds(subject, full);
      }
      ASSERT_GT(tracer.trace.size(), 0u)
          << "seed " << seed << " must exercise the migration machinery";
      bool saw_finalize = false;
      for (const std::string& p : tracer.trace) saw_finalize |= p == "migrate.retired";
      ASSERT_TRUE(saw_finalize) << "seed " << seed << " must complete a migration";

      for (usize k = 0; k < tracer.trace.size(); ++k) {
        SCOPED_TRACE(subject_name(subject) + ", groups/op " + std::to_string(per_op) +
                     ", seed " + std::to_string(seed) + ", crash at point " +
                     std::to_string(k) + " (" + tracer.trace[k] + ")");
        remove_all(path);
        nvm::CrashAtPointPolicy policy;
        policy.crash_at = k;
        RunResult r;
        {
          const nvm::ScopedCrashPoints installed(&policy);
          r = run_workload<Map>(path, subject, seed, per_op);
        }
        ASSERT_TRUE(r.crashed) << "replay must crash at the recorded point";
        run_trial<Map>(path, subject, r, per_op);
      }
    }
  }
  remove_all(path);
}

// One test per subject, so a parallel ctest runs the three sweeps side
// by side.
TEST(MigrationCrash, CrashAtEveryCrashPointRecoversToOracle) {
  const std::string path = temp_path("gh_migration_crash_points.gh");
  sweep_crash_points<GroupHashMap>(Subject::kGroupHashMap, path, 0, kSeeds);
}

// Fewer seeds for the string map: its per-trial replay costs more, and
// the seeds mostly vary which keys move, not the resize schedule.
TEST(MigrationCrash, StringGrowCrashAtEveryCrashPointRecoversToOracle) {
  const std::string path = temp_path("gh_migration_crash_points_string_grow.gh");
  sweep_crash_points<PersistentStringMap>(Subject::kStringGrow, path, 0, kStringSeeds);
}

// The compaction sweep is the longest of the three, so it is split once
// more, one test per seed; together they cover seeds [0, kStringSeeds).
static_assert(kStringSeeds == 3, "the compaction tests below cover seeds 0, 1 and 2");

TEST(MigrationCrash, StringCompactCrashAtEveryCrashPointRecoversToOracle) {
  const std::string path = temp_path("gh_migration_crash_points_string_compact.gh");
  sweep_crash_points<PersistentStringMap>(Subject::kStringCompact, path, 0, 1);
}

TEST(MigrationCrash, StringCompactCrashAtEveryCrashPointRecoversToOracleSeed1) {
  const std::string path = temp_path("gh_migration_crash_points_string_compact_seed1.gh");
  sweep_crash_points<PersistentStringMap>(Subject::kStringCompact, path, 1, 2);
}

TEST(MigrationCrash, StringCompactCrashAtEveryCrashPointRecoversToOracleSeed2) {
  const std::string path = temp_path("gh_migration_crash_points_string_compact_seed2.gh");
  sweep_crash_points<PersistentStringMap>(Subject::kStringCompact, path, 2, 3);
}

template <class Map>
void sweep_fs_steps(Subject subject, const std::string& path) {
  const u64 seed = 1;
  for (const u32 per_op : kDrainModes) {
    remove_all(path);
    nvm::CrashScheduleFs recorder;
    {
      const nvm::ScopedFsPolicy installed(&recorder);
      const RunResult full = run_workload<Map>(path, subject, seed, per_op);
      ASSERT_FALSE(full.crashed);
      expect_resize_kinds(subject, full);
    }
    ASSERT_GT(recorder.trace.size(), 0u);
    bool saw_rename = false;
    for (const auto& step : recorder.trace) {
      saw_rename |= step.op == nvm::FsOp::kRename;
    }
    ASSERT_TRUE(saw_rename) << "the workload must reach a finalize rename";

    // Step 0 is the create() of the map file itself — nothing to reopen —
    // so the sweep starts at 1.
    for (usize k = 1; k < recorder.trace.size(); ++k) {
      SCOPED_TRACE(subject_name(subject) + ", groups/op " + std::to_string(per_op) +
                   ", crash before fs step " + std::to_string(k) + " (" +
                   nvm::to_string(recorder.trace[k].op) + " " + recorder.trace[k].path + ")");
      remove_all(path);
      nvm::CrashScheduleFs policy;
      policy.crash_at = k;
      RunResult r;
      {
        const nvm::ScopedFsPolicy installed(&policy);
        r = run_workload<Map>(path, subject, seed, per_op);
      }
      ASSERT_TRUE(r.crashed) << "replay must crash at the recorded step";
      if (!r.in_flight && r.oracle.empty()) continue;  // died inside create()
      run_trial<Map>(path, subject, r, per_op);
    }
  }
  remove_all(path);
}

TEST(MigrationCrash, CrashAtEveryFsStepRecoversToOracle) {
  // The filesystem half of the sweep: target publish, every cursor-page
  // msync, the finalize rename + dir fsync. One seed is enough — the fs
  // schedule is the same protocol at every occurrence; the per-seed
  // variety above covers workload shapes.
  const std::string path = temp_path("gh_migration_crash_fs.gh");
  sweep_fs_steps<GroupHashMap>(Subject::kGroupHashMap, path);
  sweep_fs_steps<PersistentStringMap>(Subject::kStringGrow, path);
  sweep_fs_steps<PersistentStringMap>(Subject::kStringCompact, path);
}

TEST(MigrationCrash, TornMigrationTargetIsRejectedNotTrusted) {
  // A crash right before the target's first msync can lose its
  // superblock writes entirely: overwrite the .migrate file with garbage
  // and the armed-cursor open must refuse to resume into it rather than
  // serve junk.
  const std::string path = temp_path("gh_migration_torn_target.gh");
  remove_all(path);
  {
    auto map = GroupHashMap::create(path, migration_options());
    u64 i = 1;
    while (!map.migration_active() && i < 10'000) map.put(i, i), ++i;
    ASSERT_TRUE(map.migration_active());
    map.close();
  }
  {
    std::ofstream out(path + ".migrate", std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 4096; ++i) out.put(static_cast<char>(0xCB));
  }
  EXPECT_THROW((void)GroupHashMap::open(path, migration_options()), std::runtime_error);
  remove_all(path);
}

TEST(MigrationCrash, MissingMigrationTargetIsFatalNotSilent) {
  // An armed cursor whose target file vanished is unrecoverable by
  // design (the target held drained keys): open must throw, not quietly
  // serve the partial old table.
  const std::string path = temp_path("gh_migration_missing_target.gh");
  remove_all(path);
  {
    auto map = GroupHashMap::create(path, migration_options());
    u64 i = 1;
    while (!map.migration_active() && i < 10'000) map.put(i, i), ++i;
    ASSERT_TRUE(map.migration_active());
    ASSERT_GT(map.migrate_step(1), 0u);  // some keys live only in the target
    map.close();
  }
  fs::remove(path + ".migrate");
  EXPECT_THROW((void)GroupHashMap::open(path, migration_options()), std::runtime_error);
  remove_all(path);
}

TEST(MigrationCrash, CorruptCursorWordIsRejected) {
  // The cursor word carries its own inverted CRC: a word that fails it
  // is media corruption (8-byte stores never tear), and open must say so
  // instead of resuming from a forged cursor.
  const std::string path = temp_path("gh_migration_bad_cursor.gh");
  remove_all(path);
  {
    auto map = GroupHashMap::create(path, migration_options());
    map.put(1, 1);
    map.close();
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const u64 forged = 0x1234'5678'9abc'def0ull;  // active bit set, bad CRC
    f.seekp(offsetof(map_format::Superblock, migration));
    f.write(reinterpret_cast<const char*>(&forged), sizeof(forged));
  }
  EXPECT_THROW((void)GroupHashMap::open(path, migration_options()), std::runtime_error);
  remove_all(path);
}

}  // namespace
}  // namespace gh
