// Inspection and integrity checking for group-hashing tables and map
// files — the tooling layer behind the gh_fsck example.
//
// inspect() walks a table read-only and reports occupancy (overall, per
// level, per group), torn cells a recovery pass would scrub, and whether
// the persistent `count` matches a fresh scan. read_map_file_info() peeks
// at a GroupHashMap file's superblock without opening (and therefore
// without recovering) it, and inspect_map_file() scans the file the way
// the next open would see it, split image included.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "hash/group_hashing.hpp"
#include "util/types.hpp"

namespace gh {

struct TableInspection {
  u64 capacity = 0;
  u64 count_field = 0;       ///< the persistent count word
  u64 scanned_occupied = 0;  ///< occupied cells found by the scan
  u64 level1_occupied = 0;
  u64 level2_occupied = 0;
  u64 torn_cells = 0;  ///< unoccupied cells holding residual payload bytes
  u32 group_size = 0;
  std::vector<u64> group_level2_occupancy;  ///< items per level-2 group
  u64 max_group_occupancy = 0;
  u64 full_groups = 0;  ///< groups with no level-2 space left
  // Media-integrity view (group hashing with per-group checksums).
  bool checksums_enabled = false;
  u64 checksum_mismatches = 0;  ///< groups failing a fresh read-only re-derivation
  u64 quarantined_groups = 0;   ///< (level, group) pairs currently fenced off
  // Lifetime integrity counters carried over from the table's stats.
  u64 groups_scrubbed = 0;
  u64 cells_scrubbed = 0;
  u64 crc_mismatch_events = 0;
  u64 cells_lost = 0;
  u64 media_errors = 0;

  [[nodiscard]] bool count_consistent() const { return count_field == scanned_occupied; }
  [[nodiscard]] bool clean() const {
    return count_consistent() && torn_cells == 0 && checksum_mismatches == 0;
  }
  [[nodiscard]] double load_factor() const {
    return capacity ? static_cast<double>(scanned_occupied) / static_cast<double>(capacity)
                    : 0.0;
  }
};

/// Read-only structural scan of a group-hashing table.
template <class Cell, class PM>
TableInspection inspect(const hash::GroupHashTable<Cell, PM>& table) {
  TableInspection r;
  r.capacity = table.capacity();
  r.count_field = table.count();
  r.group_size = table.group_size();
  const u64 level_cells = table.level_cells();
  r.group_level2_occupancy.assign(level_cells / r.group_size, 0);
  for (u64 i = 0; i < level_cells; ++i) {
    const Cell& c1 = table.level1_cell(i);
    if (c1.occupied()) {
      r.level1_occupied++;
    } else if (c1.payload_dirty()) {
      r.torn_cells++;
    }
    const Cell& c2 = table.level2_cell(i);
    if (c2.occupied()) {
      r.level2_occupied++;
      r.group_level2_occupancy[i / r.group_size]++;
    } else if (c2.payload_dirty()) {
      r.torn_cells++;
    }
  }
  r.scanned_occupied = r.level1_occupied + r.level2_occupied;
  for (const u64 occ : r.group_level2_occupancy) {
    r.max_group_occupancy = std::max(r.max_group_occupancy, occ);
    if (occ == r.group_size) r.full_groups++;
  }
  r.checksums_enabled = table.checksums_enabled();
  if (r.checksums_enabled) {
    for (u64 g = 0; g < table.num_groups(); ++g) {
      for (u32 level = 0; level < 2; ++level) {
        if (!table.verify_group_checksum(level, g)) r.checksum_mismatches++;
        if (table.group_quarantined(level, g)) r.quarantined_groups++;
      }
    }
  }
  const auto& stats = table.stats();
  r.groups_scrubbed = stats.groups_scrubbed;
  r.cells_scrubbed = stats.cells_scrubbed;
  r.crc_mismatch_events = stats.crc_mismatches;
  r.cells_lost = stats.cells_lost;
  r.media_errors = stats.media_errors;
  return r;
}

/// Per-shard view of a concurrent map: the structural scan plus the
/// shard's seqlock contention counters (read retries, lock fallbacks,
/// writer waits — see util/seqlock.hpp).
struct ShardInspection {
  usize shard = 0;
  TableInspection table;
  u64 read_retries = 0;
  u64 read_fallbacks = 0;
  u64 writer_waits = 0;
};

struct ConcurrentMapInspection {
  std::vector<ShardInspection> shards;
  u64 total_capacity = 0;
  u64 total_occupied = 0;
  u64 total_torn_cells = 0;
  u64 total_checksum_mismatches = 0;
  u64 total_quarantined_groups = 0;
  u64 total_cells_scrubbed = 0;
  u64 total_cells_lost = 0;
  u64 total_media_errors = 0;

  [[nodiscard]] bool clean() const {
    for (const auto& s : shards) {
      if (!s.table.clean()) return false;
    }
    return true;
  }
};

/// Structural scan of every shard of a concurrent map, taken under each
/// shard's lock in turn (writers in other shards proceed unhindered).
/// Works for any wrapper exposing shard_count(), with_shard_table() and a
/// snapshot() with per-shard briefs — i.e. ConcurrentGroupHashMap and
/// ConcurrentGroupHashMapWide (a string map's shards expose no table).
template <class ConcurrentMap>
ConcurrentMapInspection inspect_shards(ConcurrentMap& map) {
  ConcurrentMapInspection r;
  r.shards.reserve(map.shard_count());
  const auto snap = map.snapshot();
  for (usize s = 0; s < map.shard_count(); ++s) {
    ShardInspection si;
    si.shard = s;
    map.with_shard_table(s, [&](const auto& table) { si.table = inspect(table); });
    const auto& c = snap.per_shard[s].contention;
    si.read_retries = c.read_retries;
    si.read_fallbacks = c.read_fallbacks;
    si.writer_waits = c.writer_waits;
    r.total_capacity += si.table.capacity;
    r.total_occupied += si.table.scanned_occupied;
    r.total_torn_cells += si.table.torn_cells;
    r.total_checksum_mismatches += si.table.checksum_mismatches;
    r.total_quarantined_groups += si.table.quarantined_groups;
    r.total_cells_scrubbed += si.table.cells_scrubbed;
    r.total_cells_lost += si.table.cells_lost;
    r.total_media_errors += si.table.media_errors;
    r.shards.push_back(std::move(si));
  }
  return r;
}

/// Superblock summary of a GroupHashMap file (no recovery is triggered).
struct MapFileInfo {
  u64 version = 0;
  bool clean = false;   ///< last shutdown was orderly
  u64 cell_size = 0;    ///< 16 (integer keys) or 32 (wide keys)
  u64 table_offset = 0;
  u64 table_bytes = 0;
  u64 group_size = 0;
  u64 level_cells = 0;
  u64 count = 0;
  bool superblock_crc_ok = false;  ///< geometry checksum verified
  bool group_checksums = false;    ///< table carries per-group checksums
  bool migration_word_ok = false;  ///< resize cursor word self-checksums
  bool migration_armed = false;    ///< a resize into `<path>.migrate` is under way
  u64 migration_cursor = 0;        ///< next source group it drains
};

/// Throws std::runtime_error when the file is not a GroupHashMap.
MapFileInfo read_map_file_info(const std::string& path);

/// A map file scanned as its next open would see it. Mid-resize the
/// items live in two tables: the file's own, whose groups below the
/// cursor are retired (cleared here on a private copy first, as the
/// open clears them), and the `.migrate` target.
struct MapFileInspection {
  MapFileInfo info;
  TableInspection table;  ///< the file's table, retired groups cleared
  std::string target_path;                ///< `<path>.migrate` (armed resize only)
  std::optional<TableInspection> target;  ///< its table; empty if the file is missing

  [[nodiscard]] u64 items() const {
    return table.scanned_occupied + (target ? target->scanned_occupied : 0);
  }
  [[nodiscard]] bool clean() const {
    return info.clean && info.migration_word_ok && table.clean() &&
           (!info.migration_armed || (target && target->clean()));
  }
};

/// Read-only: the file (and its target) are copied, never written.
/// Throws std::runtime_error when the file is not a GroupHashMap.
MapFileInspection inspect_map_file(const std::string& path);

}  // namespace gh
