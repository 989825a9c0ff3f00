// On-NVM file format of every durable map (GroupHashMap,
// GroupHashMapWide and PersistentStringMap): the superblock page that
// precedes the table. Shared by the map implementation
// (group_hash_map.cpp) and the read-only tooling (inspect.cpp / gh_fsck).
//
// Layout:
//   [0, 4096)                   Superblock (magic, version, state, geometry)
//   [4096, 4096 + arena_bytes)  record arena (string maps; empty otherwise)
//   [table_offset, ...)         GroupHashTable (64-byte header + two levels)
//
// The superblock carries a CRC32C over its geometry fields so a bit-rot
// hit on the metadata page fails the open with a typed error instead of
// mapping the table at forged bounds. The mutable `state` word (flipped
// clean/dirty by an 8-byte atomic store on every open/close) is excluded
// from the checksum; it is self-validating — only the two known
// enumerator values are accepted.
#pragma once

#include "util/crc32c.hpp"
#include "util/types.hpp"

namespace gh::map_format {

inline constexpr u64 kMagic = 0x47484d4150303031ull;  // "GHMAP001"
inline constexpr u64 kVersion = 3;                    // v3: + per-file record arena
inline constexpr u64 kStateClean = 0x636c65616eull;  // "clean"
inline constexpr u64 kStateDirty = 0x6469727479ull;  // "dirty"
inline constexpr usize kTableOffset = 4096;          // superblock page

struct Superblock {
  u64 magic;
  u64 version;
  u64 state;  ///< kStateClean / kStateDirty; 8-byte atomically flipped
  u64 cell_size;
  u64 table_offset;
  u64 table_bytes;
  u64 group_size;
  u64 seed;
  u64 crc;        ///< CRC32C of the geometry fields above (state excluded)
  u64 migration;  ///< resize cursor word; 0 = no migration (see below)
  u64 arena_offset;  ///< record arena (core/payload.hpp); 0 when inline
  u64 arena_bytes;   ///< 0 for maps whose values live in their cells
};

// ---------------------------------------------------------------------------
// Resize migration cursor.
//
// One 8-byte word, advanced with a single atomic store + persist per
// migrated group (the paper's commit-word discipline — never torn):
//
//   bits [0,31)   cursor: index of the next source group to migrate
//   bit  31       active flag
//   bits [32,64)  CRC32C of the low 32 bits
//
// The word is NOT covered by superblock_crc (it mutates thousands of
// times per resize); it is self-validating instead, like `state`. A zero
// word means "no migration in progress".

inline constexpr u32 kMigrationActiveBit = 0x8000'0000u;

inline u64 encode_migration_word(u32 cursor_group) {
  const u32 payload = kMigrationActiveBit | cursor_group;
  const u32 check = ~crc32c_update(~0u, &payload, sizeof(payload));
  return (static_cast<u64>(check) << 32) | payload;
}

/// True iff `word` is zero (inactive) or a well-formed active cursor.
inline bool migration_word_valid(u64 word) {
  if (word == 0) return true;
  const u32 payload = static_cast<u32>(word);
  const u32 check = ~crc32c_update(~0u, &payload, sizeof(payload));
  return (payload & kMigrationActiveBit) != 0 && static_cast<u32>(word >> 32) == check;
}

inline bool migration_word_active(u64 word) { return word != 0; }

inline u32 migration_word_cursor(u64 word) {
  return static_cast<u32>(word) & ~kMigrationActiveBit;
}

/// Checksum of every immutable superblock field. Written with each new
/// region's geometry (a new map or a resize target); verified before the geometry
/// is trusted on open().
inline u32 superblock_crc(const Superblock& sb) {
  u32 c = crc32c_update(~0u, &sb.magic, sizeof(u64));
  c = crc32c_update(c, &sb.version, sizeof(u64));
  c = crc32c_update(c, &sb.cell_size, sizeof(u64));
  c = crc32c_update(c, &sb.table_offset, sizeof(u64));
  c = crc32c_update(c, &sb.table_bytes, sizeof(u64));
  c = crc32c_update(c, &sb.group_size, sizeof(u64));
  c = crc32c_update(c, &sb.seed, sizeof(u64));
  c = crc32c_update(c, &sb.arena_offset, sizeof(u64));
  c = crc32c_update(c, &sb.arena_bytes, sizeof(u64));
  return ~c;
}

}  // namespace gh::map_format
