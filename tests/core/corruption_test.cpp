// Media-fault robustness suite: every injected fault class must end in
// one of exactly three outcomes — correct data, a typed error, or a
// quarantined-and-reported loss. A lookup that silently returns a wrong
// value is a test failure, full stop.
//
// Fault classes covered: at-rest bit rot (single and multi-bit), torn
// multi-word writes, poisoned cachelines (typed MediaError), superblock
// corruption, and resource exhaustion (ENOSPC-style create failures
// during expansion, which must degrade — not kill — the map).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/errors.hpp"
#include "core/group_hash_map.hpp"
#include "core/inspect.hpp"
#include "core/map_format.hpp"
#include "core/string_map.hpp"
#include "hash/any_table.hpp"
#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "hash/hash_functions.hpp"
#include "nvm/corrupting_pm.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/fault_fs.hpp"
#include "nvm/media_error.hpp"
#include "support/temp_path.hpp"
#include "util/rng.hpp"

namespace gh {
namespace {

using hash::Cell16;
using hash::LostCell;
using hash::ScrubMode;
using nvm::CorruptingPM;

using gh::test::TempFile;
using gh::test::temp_path;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flips one value bit of the first occupied cell of a closed
/// GroupHashMap (16-byte cells) file; returns that cell's key (0: none).
u64 flip_first_value_bit(const std::string& path) {
  std::string bytes = read_file(path);
  const usize cells_at = map_format::kTableOffset + 64;
  for (usize off = cells_at; off + 16 <= bytes.size(); off += 16) {
    u64 word0;
    std::memcpy(&word0, bytes.data() + off, sizeof(word0));
    if (word0 & Cell16::kOccupiedBit) {
      bytes[off + 8] = static_cast<char>(bytes[off + 8] ^ 1);
      write_file(path, bytes);
      return word0 & ~Cell16::kOccupiedBit;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Table level: GroupHashTable on CorruptingPM.
// ---------------------------------------------------------------------------

struct CorruptTable {
  using Table = hash::GroupHashTable<Cell16, CorruptingPM>;

  explicit CorruptTable(u64 level_cells, u32 group_size, u64 seed = hash::kDefaultSeed1)
      : params{.level_cells = level_cells,
               .group_size = group_size,
               .seed = seed,
               .group_crc = true},
        buf(Table::required_bytes(params)),
        pm({buf.data(), buf.size()}),
        table(pm, {buf.data(), buf.size()}, params, /*format=*/true) {}

  /// (level, group) that `key` may legally live in.
  [[nodiscard]] std::pair<u64, u64> home_of(u64 key) const {
    const hash::SeededHash h(params.seed);
    const u64 k = h(key) & (params.level_cells - 1);
    return {k, k / params.group_size};
  }

  [[nodiscard]] usize cell_offset(u64 global_index) const {
    return sizeof(Table::Header) + global_index * sizeof(Cell16);
  }

  Table::Params params;
  std::vector<std::byte> buf;
  CorruptingPM pm;
  Table table;
};

TEST(CorruptionTable, BitRotIsNeverServedSilently) {
  // Sweep several injection seeds; each round is a fresh table with fresh
  // random flips inside the cell arrays.
  for (u64 round = 0; round < 10; ++round) {
    CorruptTable t(1024, 64);
    std::unordered_map<u64, u64> ref;
    Xoshiro256 keyrng(1000 + round);
    while (ref.size() < 300) {
      const u64 k = keyrng.next_below(Cell16::kMaxKey - 1) + 1;
      if (ref.contains(k)) continue;
      ASSERT_TRUE(t.table.insert(k, k * 13));
      ref[k] = k * 13;
    }

    // Flip 8 random bits anywhere in the two cell arrays (ground truth:
    // the set of (level, group) pairs hit).
    Xoshiro256 flips(77 * round + 5);
    std::set<std::pair<u32, u64>> hit_groups;
    for (int i = 0; i < 8; ++i) {
      const u64 gi = flips.next_below(2 * 1024);
      t.pm.flip_bit(t.cell_offset(gi) + flips.next_below(sizeof(Cell16)),
                    static_cast<unsigned>(flips.next_below(8)));
      hit_groups.insert({gi < 1024 ? 0u : 1u, (gi % 1024) / 64});
    }

    std::vector<LostCell> losses;
    const auto report = t.table.scrub_groups(
        0, t.table.num_groups(), [&](const LostCell& c) { losses.push_back(c); });

    // Quarantine only where we actually injected (flips can cancel, so
    // subset — never a false positive elsewhere).
    for (u64 g = 0; g < t.table.num_groups(); ++g) {
      for (u32 level = 0; level < 2; ++level) {
        if (t.table.group_quarantined(level, g)) {
          EXPECT_TRUE(hit_groups.contains({level, g}))
              << "round " << round << ": false quarantine of level " << level
              << " group " << g;
        }
      }
    }
    EXPECT_EQ(losses.size(), report.cells_lost);
    EXPECT_GE(report.crc_mismatches, 1u) << "round " << round;

    // The contract: every lookup is correct or an accounted-for loss.
    u64 still_present = 0;
    for (const auto& [k, v] : ref) {
      const auto got = t.table.find(k);
      if (got.has_value()) {
        EXPECT_EQ(*got, v) << "round " << round << ": silent wrong value for key " << k;
        still_present++;
      } else {
        const auto [cell, group] = t.home_of(k);
        EXPECT_TRUE(t.table.group_quarantined(0, group) ||
                    t.table.group_quarantined(1, group))
            << "round " << round << ": key " << k << " vanished without quarantine";
      }
    }
    // Count stays consistent with what a full scan sees (bit rot leaves
    // every cell readable, so the drop accounting is exact).
    u64 scanned = 0;
    t.table.for_each([&](u64, u64) { scanned++; });
    EXPECT_EQ(t.table.count(), scanned);
    EXPECT_EQ(scanned, still_present);

    // Scrub re-sealed every failed group: a second pass is clean.
    const auto again = t.table.scrub_groups(0, t.table.num_groups(), [](const LostCell&) {});
    EXPECT_EQ(again.crc_mismatches, 0u);
    EXPECT_EQ(again.cells_lost, 0u);
  }
}

TEST(CorruptionTable, TornMultiWordWriteIsCaughtByScrub) {
  CorruptTable t(256, 16);
  for (u64 k = 1; k <= 40; ++k) ASSERT_TRUE(t.table.insert(k, k + 100));

  // Forge a torn insert below the table's protocol: a 16-byte cell image
  // written with a non-atomic copy that tears after the first word. The
  // commit word lands, the value does not — the textbook ordering bug the
  // per-word publish protocol exists to prevent.
  u64 victim = 50000;
  auto [cell_index, group] = t.home_of(victim);
  while (t.table.level1_cell(cell_index).occupied()) {
    ++victim;
    std::tie(cell_index, group) = t.home_of(victim);
  }
  auto* cell = const_cast<Cell16*>(&t.table.level1_cell(cell_index));
  const u64 image[2] = {Cell16::kOccupiedBit | victim, 777};
  t.pm.arm_tear(1);
  t.pm.copy(cell, image, sizeof(image));
  ASSERT_EQ(t.pm.tears_injected(), 1u);

  // In-process, the DRAM fingerprint filter happens to hide the forged
  // cell (it was written beneath the table's API, so its tag still reads
  // empty) — but tags are rebuilt from the cells on open, so a reopened
  // image DOES lie (value 0, not 777). That reopened view is exactly why
  // the checksum pass must run before the image is trusted.
  {
    auto reopened = CorruptTable::Table::attach(t.pm, {t.buf.data(), t.buf.size()});
    const auto lie = reopened.find(victim);
    ASSERT_TRUE(lie.has_value());
    ASSERT_EQ(*lie, 0u);
  }

  std::vector<LostCell> losses;
  const auto report = t.table.scrub_groups(
      0, t.table.num_groups(), [&](const LostCell& c) { losses.push_back(c); });
  EXPECT_GE(report.crc_mismatches, 1u);
  EXPECT_TRUE(t.table.group_quarantined(0, group));
  // The forged key was reported on its way out, and the lie is gone.
  bool reported = false;
  for (const auto& c : losses) reported |= c.key.lo == victim;
  EXPECT_TRUE(reported);
  EXPECT_FALSE(t.table.find(victim).has_value());
}

TEST(CorruptionTable, PoisonedLineIsTypedThenContained) {
  CorruptTable t(1024, 64);
  std::vector<u64> keys;
  for (u64 k = 1; k <= 200; ++k) {
    ASSERT_TRUE(t.table.insert(k, k * 3));
    keys.push_back(k);
  }
  // Poison the line under some occupied level-1 cell.
  u64 victim_cell = ~u64{0};
  for (u64 i = 0; i < 1024; ++i) {
    if (t.table.level1_cell(i).occupied()) {
      victim_cell = i;
      break;
    }
  }
  ASSERT_NE(victim_cell, ~u64{0});
  const u64 victim_key = t.table.level1_cell(victim_cell).key();
  const u64 victim_group = victim_cell / 64;
  t.pm.poison_line(t.cell_offset(victim_cell));

  // A direct probe faults typed — never a silent wrong answer.
  EXPECT_THROW((void)t.table.find(victim_key), nvm::MediaError);

  // Scrub contains it: the fault is counted, the group quarantined, the
  // unreadable cells reported, the line healed by the scrub stores.
  std::vector<LostCell> losses;
  const auto report = t.table.scrub_groups(
      0, t.table.num_groups(), [&](const LostCell& c) { losses.push_back(c); });
  EXPECT_GE(report.media_errors, 1u);
  EXPECT_TRUE(t.table.group_quarantined(0, victim_group));
  bool unreadable_reported = false;
  for (const auto& c : losses) unreadable_reported |= !c.readable;
  EXPECT_TRUE(unreadable_reported);
  EXPECT_EQ(t.pm.poisoned_line_count(), 0u) << "scrub stores must heal the line";

  // Post-containment: no throws anywhere, answers correct-or-quarantined.
  EXPECT_FALSE(t.table.find(victim_key).has_value());
  for (const u64 k : keys) {
    std::optional<u64> got;
    EXPECT_NO_THROW(got = t.table.find(k));
    if (got.has_value()) {
      EXPECT_EQ(*got, k * 3);
    }
  }
  // Unreadable cells make `count` drift by design; recovery recomputes.
  const auto rec = t.table.recover();
  u64 scanned = 0;
  t.table.for_each([&](u64, u64) { scanned++; });
  EXPECT_EQ(t.table.count(), scanned);
  EXPECT_EQ(rec.recovered_count, scanned);
}

TEST(CorruptionTable, RecoveryHealsPoisonAndRebuildsChecksums) {
  CorruptTable t(256, 16);
  for (u64 k = 1; k <= 60; ++k) ASSERT_TRUE(t.table.insert(k, k));
  t.pm.poison_line(t.cell_offset(0));
  t.pm.flip_bit(t.cell_offset(300), 2);  // plus some bit rot elsewhere

  const auto report = t.table.recover();
  EXPECT_GE(report.media_errors, 1u);
  EXPECT_EQ(t.pm.poisoned_line_count(), 0u);
  // Recovery rebuilds every checksum over what the media now holds.
  for (u64 g = 0; g < t.table.num_groups(); ++g) {
    EXPECT_TRUE(t.table.verify_group_checksum(0, g)) << g;
    EXPECT_TRUE(t.table.verify_group_checksum(1, g)) << g;
  }
}

TEST(CorruptionTable, SalvageModeKeepsConsistentCellsAndReportsThem) {
  CorruptTable t(64, 8);
  for (u64 k = 1; k <= 30; ++k) ASSERT_TRUE(t.table.insert(k, k * 9));

  // Find a level-1 group holding both an occupied and a free cell, and
  // rot a bit in the FREE cell — the occupied neighbours are then
  // salvageable (their keys still hash home).
  u64 occupied_cell = ~u64{0}, free_cell = ~u64{0};
  for (u64 g = 0; g < t.table.num_groups() && occupied_cell == ~u64{0}; ++g) {
    u64 occ = ~u64{0}, fre = ~u64{0};
    for (u64 i = g * 8; i < (g + 1) * 8; ++i) {
      (t.table.level1_cell(i).occupied() ? occ : fre) = i;
    }
    if (occ != ~u64{0} && fre != ~u64{0}) {
      occupied_cell = occ;
      free_cell = fre;
    }
  }
  ASSERT_NE(occupied_cell, ~u64{0});
  const u64 group = occupied_cell / 8;
  const u64 kept_key = t.table.level1_cell(occupied_cell).key();
  t.pm.flip_bit(t.cell_offset(free_cell) + 8, 0);  // dirty a free cell's value word

  std::vector<LostCell> losses;
  const auto report = t.table.scrub_groups(
      0, t.table.num_groups(), [&](const LostCell& c) { losses.push_back(c); },
      ScrubMode::kSalvage);
  EXPECT_GE(report.crc_mismatches, 1u);
  EXPECT_TRUE(t.table.group_quarantined(0, group));
  EXPECT_EQ(report.cells_lost, 0u) << "all occupied cells were location-consistent";
  ASSERT_FALSE(losses.empty());
  for (const auto& c : losses) {
    EXPECT_TRUE(c.salvaged);
    EXPECT_TRUE(c.location_consistent);
  }
  // Salvaged cells keep serving — with the value they had.
  EXPECT_EQ(t.table.find(kept_key).value(), kept_key * 9);
  // And the re-sealed checksum covers the retained contents.
  EXPECT_TRUE(t.table.verify_group_checksum(0, group));
}

TEST(CorruptionTable, InspectionSurfacesIntegrityCounters) {
  CorruptTable t(256, 16);
  for (u64 k = 1; k <= 50; ++k) ASSERT_TRUE(t.table.insert(k, k));
  t.pm.flip_bit(t.cell_offset(0), 5);
  const auto report =
      t.table.scrub_groups(0, t.table.num_groups(), [](const LostCell&) {});
  ASSERT_GE(report.crc_mismatches, 1u);

  const TableInspection insp = inspect(t.table);
  EXPECT_TRUE(insp.checksums_enabled);
  EXPECT_EQ(insp.checksum_mismatches, 0u);  // scrub re-sealed them
  EXPECT_GE(insp.quarantined_groups, 1u);
  EXPECT_EQ(insp.crc_mismatch_events, report.crc_mismatches);
  EXPECT_EQ(insp.cells_lost, report.cells_lost);
  EXPECT_GE(insp.groups_scrubbed, 2 * t.table.num_groups());
  EXPECT_TRUE(insp.count_consistent());
}

// ---------------------------------------------------------------------------
// AnyTable: scrub through the type-erased interface.
// ---------------------------------------------------------------------------

TEST(CorruptionAnyTable, GroupSchemeScrubsLinearReturnsEmpty) {
  nvm::DirectPM pm{nvm::PersistConfig{}};
  for (const auto scheme : {hash::Scheme::kGroup, hash::Scheme::kLinear}) {
    hash::TableConfig cfg;
    cfg.scheme = scheme;
    cfg.total_cells_log2 = 10;
    cfg.group_size = 64;
    cfg.group_crc = true;
    std::vector<std::byte> mem(hash::table_required_bytes(cfg));
    auto table = hash::make_table(pm, {mem.data(), mem.size()}, cfg, /*format=*/true);
    for (u64 k = 1; k <= 100; ++k) ASSERT_TRUE(table->insert(Key128{k, 0}, k));
    const auto report = table->scrub();
    if (scheme == hash::Scheme::kGroup) {
      EXPECT_GT(report.groups_checked, 0u);
      EXPECT_TRUE(report.clean());
    } else {
      EXPECT_EQ(report.groups_checked, 0u);  // no checksummed groups to scrub
    }
  }
}

// ---------------------------------------------------------------------------
// Map level: open-time verification, superblock integrity, scrub cursor.
// ---------------------------------------------------------------------------

TEST(CorruptionMap, CleanReopenVerifiesWithoutFalsePositives) {
  TempFile file("gh_corrupt_clean.gh");
  {
    auto map = GroupHashMap::create(file.path, {.initial_cells = 1024});
    for (u64 k = 1; k <= 200; ++k) map.put(k, k);
    map.close();
  }
  auto map = GroupHashMap::open(file.path);
  EXPECT_FALSE(map.recovered_on_open());
  EXPECT_FALSE(map.corruption_detected_on_open());
  EXPECT_TRUE(map.open_scrub_report().clean());
  EXPECT_GT(map.open_scrub_report().groups_checked, 0u);
  for (u64 k = 1; k <= 200; ++k) EXPECT_EQ(*map.get(k), k);
}

TEST(CorruptionMap, AtRestBitRotDetectedOnCleanOpen) {
  TempFile file("gh_corrupt_rot.gh");
  std::unordered_map<u64, u64> ref;
  {
    auto map = GroupHashMap::create(file.path, {.initial_cells = 1024});
    for (u64 k = 1; k <= 200; ++k) {
      map.put(k, k * 21);
      ref[k] = k * 21;
    }
    map.close();
  }
  // Flip one value bit of the first occupied cell, straight in the file.
  const u64 corrupted_key = flip_first_value_bit(file.path);
  ASSERT_NE(corrupted_key, 0u);

  std::vector<LostCell> losses;
  MapOptions opts;
  opts.on_lost_cell = [&](const LostCell& c) { losses.push_back(c); };
  auto map = GroupHashMap::open(file.path, opts);
  EXPECT_FALSE(map.recovered_on_open());
  EXPECT_TRUE(map.corruption_detected_on_open());
  EXPECT_GE(map.open_scrub_report().crc_mismatches, 1u);
  EXPECT_GE(map.open_scrub_report().groups_quarantined, 1u);
  ASSERT_FALSE(losses.empty());

  std::unordered_set<u64> lost_keys;
  for (const auto& c : losses) lost_keys.insert(c.key.lo);
  EXPECT_TRUE(lost_keys.contains(corrupted_key));
  EXPECT_FALSE(map.get(corrupted_key).has_value())
      << "corrupted value must not be served";
  for (const auto& [k, v] : ref) {
    const auto got = map.get(k);
    if (got.has_value()) {
      EXPECT_EQ(*got, v) << "silent wrong value for key " << k;
    } else {
      EXPECT_TRUE(lost_keys.contains(k)) << "key " << k << " vanished unreported";
    }
  }
}

TEST(CorruptionMap, ContainmentOnCleanOpenResealsTheCount) {
  // A map leaves its count word to recovery and close()'s seal. Open-time
  // containment drops cells while the file is still marked clean, so the
  // open re-seals the count before its dirty mark: a crash in between
  // must not leave a clean mark over a count that includes dropped cells.
  TempFile file("gh_corrupt_reseal.gh");
  {
    auto map = GroupHashMap::create(file.path, {.initial_cells = 1024});
    for (u64 k = 1; k <= 200; ++k) map.put(k, k);
    map.close();
  }
  ASSERT_NE(flip_first_value_bit(file.path), 0u);
  auto map = GroupHashMap::open(file.path);
  ASSERT_TRUE(map.corruption_detected_on_open());
  const u64 lost = map.open_scrub_report().cells_lost;
  ASSERT_GT(lost, 0u);
  EXPECT_EQ(map.size(), 200 - lost);
  EXPECT_EQ(read_map_file_info(file.path).count, map.size());
}

TEST(CorruptionMap, SuperblockCorruptionFailsOpenWithTypedError) {
  TempFile file("gh_corrupt_sb.gh");
  {
    auto map = GroupHashMap::create(file.path, {.initial_cells = 256});
    map.put(1, 1);
    map.close();
  }
  std::string bytes = read_file(file.path);
  // Offset 40 = Superblock::table_bytes — forge the geometry.
  bytes[40] = static_cast<char>(bytes[40] ^ 0x40);
  write_file(file.path, bytes);

  EXPECT_FALSE(read_map_file_info(file.path).superblock_crc_ok);
  try {
    auto map = GroupHashMap::open(file.path);
    FAIL() << "open() accepted a forged superblock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(CorruptionMap, DirtyOpenRebuildsChecksumsViaRecovery) {
  TempFile file("gh_corrupt_dirty.gh");
  {
    auto map = GroupHashMap::create(file.path, {.initial_cells = 1024});
    for (u64 k = 1; k <= 100; ++k) map.put(k, k + 4);
    // Keep a dirty snapshot, as a crash would have.
    std::filesystem::copy_file(file.path, file.path + ".crashed",
                               std::filesystem::copy_options::overwrite_existing);
    map.close();
  }
  auto map = GroupHashMap::open(file.path + ".crashed");
  EXPECT_TRUE(map.recovered_on_open());
  const TableInspection insp = inspect(map.raw_table());
  EXPECT_TRUE(insp.checksums_enabled);
  EXPECT_EQ(insp.checksum_mismatches, 0u) << "recovery must rebuild, not inherit";
  for (u64 k = 1; k <= 100; ++k) EXPECT_EQ(*map.get(k), k + 4);
  std::filesystem::remove(file.path + ".crashed");
}

TEST(CorruptionMap, IncrementalScrubCursorCoversEverythingAndWraps) {
  auto map = GroupHashMap::create_in_memory({.initial_cells = 1024, .group_size = 32});
  for (u64 k = 1; k <= 100; ++k) map.put(k, k);
  const u64 ngroups = map.raw_table().num_groups();
  ASSERT_GT(ngroups, 3u);
  // Ticks of 3 groups each: after ceil(n/3) calls every group was seen at
  // least once (each tick checks both levels of its window; the last tick
  // wraps past the end, re-checking early groups).
  const u64 ticks = (ngroups + 2) / 3;
  u64 checked = 0;
  for (u64 calls = 0; calls < ticks; ++calls) checked += map.scrub(3).groups_checked;
  EXPECT_EQ(checked, 2 * 3 * ticks);
  EXPECT_GE(checked, 2 * ngroups);
  // Wraps: further ticks keep scrubbing rather than going idle.
  EXPECT_EQ(map.scrub(3).groups_checked, 6u);
  EXPECT_EQ(map.snapshot().scrub.groups_scrubbed, checked + 6);
}

TEST(CorruptionMap, ChecksumsCanBeOptedOut) {
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 256, .checksum_groups = false});
  for (u64 k = 1; k <= 50; ++k) map.put(k, k);
  EXPECT_FALSE(map.raw_table().checksums_enabled());
  const auto report = map.scrub();
  EXPECT_EQ(report.groups_checked, 0u);
  for (u64 k = 1; k <= 50; ++k) EXPECT_EQ(*map.get(k), k);
}

TEST(CorruptionMapWide, AtRestCorruptionDetectedForWideCells) {
  TempFile file("gh_corrupt_wide.gh");
  {
    auto map = GroupHashMapWide::create(file.path, {.initial_cells = 512});
    for (u64 i = 1; i <= 60; ++i) map.put(Key128{i, i * 7}, i);
    map.close();
  }
  std::string bytes = read_file(file.path);
  const usize cells_at = map_format::kTableOffset + 64;
  bool flipped = false;
  for (usize off = cells_at; off + 32 <= bytes.size() && !flipped; off += 32) {
    u64 meta;
    std::memcpy(&meta, bytes.data() + off, sizeof(meta));
    if (meta & hash::Cell32::kOccupiedBit) {
      bytes[off + 8] = static_cast<char>(bytes[off + 8] ^ 0x10);  // key_lo bit
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  write_file(file.path, bytes);

  auto map = GroupHashMapWide::open(file.path);
  EXPECT_TRUE(map.corruption_detected_on_open());
  EXPECT_GE(map.open_scrub_report().crc_mismatches, 1u);
}

TEST(CorruptionStringMap, AtRestBitRotIsContainedNotFatal) {
  // A string map's value word is a record offset, and a rotted offset
  // that reached the arena would fail its bounds check and abort the
  // process. Verify-on-open must catch it first: drop the group, report
  // its keys, and serve every other key exactly.
  TempFile file("gh_corrupt_smap.gh");
  std::unordered_map<std::string, u64> ref;
  {
    auto map = PersistentStringMap::create(file.path, {});
    for (u64 k = 0; k < 200; ++k) {
      const std::string key = "key-" + std::to_string(k);
      map.put(key, k * 21 + 1);
      ref[key] = k * 21 + 1;
    }
    map.close();
  }
  // Flip bit 30 of the first occupied Cell32's value word, straight in
  // the file: the offset now points a GiB past the arena head.
  std::string bytes = read_file(file.path);
  map_format::Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  const usize cells_end = sb.table_offset + sb.table_bytes;
  bool flipped = false;
  for (usize off = sb.table_offset + 64; off + 32 <= cells_end && !flipped; off += 32) {
    u64 meta;
    std::memcpy(&meta, bytes.data() + off, sizeof(meta));
    if (meta & hash::Cell32::kOccupiedBit) {
      bytes[off + 24 + 3] = static_cast<char>(bytes[off + 24 + 3] ^ 0x40);
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  write_file(file.path, bytes);

  std::vector<LostCell> losses;
  StringMapOptions opts;
  opts.map.on_lost_cell = [&](const LostCell& c) { losses.push_back(c); };
  auto map = PersistentStringMap::open(file.path, opts);
  EXPECT_FALSE(map.recovered_on_open());
  EXPECT_TRUE(map.corruption_detected_on_open());
  ASSERT_FALSE(losses.empty());
  std::set<std::pair<u64, u64>> lost;
  for (const auto& c : losses) lost.insert({c.key.lo, c.key.hi});
  for (const auto& [key, v] : ref) {
    const auto got = map.get(key);
    if (got.has_value()) {
      EXPECT_EQ(*got, v) << "silent wrong value for key " << key;
    } else {
      const Key128 fp = PersistentStringMap::fingerprint(key);
      EXPECT_TRUE(lost.contains({fp.lo, fp.hi})) << "key " << key << " vanished unreported";
    }
  }
  EXPECT_EQ(map.size() + losses.size(), ref.size());
}

// ---------------------------------------------------------------------------
// Resource exhaustion: expansion failure must degrade, not destroy.
// ---------------------------------------------------------------------------

/// Fails every region-file create while armed — the observable shape of
/// ENOSPC (or an allocation failure) hitting the expansion rebuild.
struct FailCreates : nvm::FsPolicy {
  bool armed = true;
  Decision on_step(const nvm::FsStep& step) override {
    return armed && step.op == nvm::FsOp::kCreate ? Decision::kFail : Decision::kProceed;
  }
};

TEST(CorruptionMap, EnospcDuringExpandDegradesAndLaterInsertRecovers) {
  TempFile file("gh_corrupt_enospc.gh");
  auto map = GroupHashMap::create(file.path, {.initial_cells = 64, .group_size = 16});

  FailCreates policy;
  nvm::ScopedFsPolicy installed(&policy);

  // Fill until a placement failure forces an expansion, which fails.
  std::unordered_map<u64, u64> ref;
  u64 blocked_key = 0;
  for (u64 k = 1; k <= 10000 && blocked_key == 0; ++k) {
    try {
      map.put(k, k * 3);
      ref[k] = k * 3;
    } catch (const MapDegradedError& e) {
      blocked_key = k;
      EXPECT_NE(std::string(e.what()).find("retry"), std::string::npos);
    }
  }
  ASSERT_NE(blocked_key, 0u) << "map never hit its expansion trigger";
  EXPECT_TRUE(map.expand_pending());
  EXPECT_TRUE(map.degraded());
  EXPECT_GE(map.snapshot().lifecycle.expand_failures, 1u);
  EXPECT_FALSE(map.last_expand_error().empty());

  // Degraded, not dead: reads are all correct, writes that fit proceed.
  for (const auto& [k, v] : ref) EXPECT_EQ(*map.get(k), v);
  const u64 existing = ref.begin()->first;
  map.put(existing, 4242);  // in-place update needs no placement
  EXPECT_EQ(*map.get(existing), 4242u);
  ref[existing] = 4242;

  // A couple more blocked attempts grow the backoff instead of retrying
  // the doomed expansion on every insert.
  int degraded_throws = 0;
  for (int i = 0; i < 4; ++i) {
    try {
      map.put(blocked_key, blocked_key * 3);
      break;
    } catch (const MapDegradedError&) {
      degraded_throws++;
    }
  }
  EXPECT_EQ(degraded_throws, 4);
  const u64 failures_while_armed = map.snapshot().lifecycle.expand_failures;
  EXPECT_GE(failures_while_armed, 2u);

  // Space comes back: the next insert past the backoff window completes
  // the deferred expansion and the map returns to normal.
  policy.armed = false;
  bool inserted = false;
  for (int attempt = 0; attempt < 200 && !inserted; ++attempt) {
    try {
      map.put(blocked_key, blocked_key * 3);
      inserted = true;
    } catch (const MapDegradedError&) {
    }
  }
  ASSERT_TRUE(inserted) << "backoff never allowed the expansion retry";
  ref[blocked_key] = blocked_key * 3;
  EXPECT_FALSE(map.expand_pending());
  EXPECT_FALSE(map.degraded());
  EXPECT_GE(map.snapshot().lifecycle.expansions, 1u);
  for (const auto& [k, v] : ref) EXPECT_EQ(*map.get(k), v);

  // And the recovered map is durable: reopen and re-check.
  map.close();
  auto reopened = GroupHashMap::open(file.path);
  EXPECT_FALSE(reopened.corruption_detected_on_open());
  for (const auto& [k, v] : ref) EXPECT_EQ(*reopened.get(k), v);
}

}  // namespace
}  // namespace gh
