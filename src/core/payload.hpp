// Payload policies of BasicGroupHashMap: what a cell's 8-byte value word
// means, and how it moves into another map file when a resize migrates
// the cell (core/group_hash_map.hpp, DESIGN.md "Resize").
//
//   * InlinePayload — the word IS the value (GroupHashMap,
//     GroupHashMapWide). Every hook is empty and inlines to nothing, so
//     those maps' per-op code is the payload-free code.
//   * ArenaPayload — the word is the offset of a record in the map
//     file's own PersistentArena (PersistentStringMap). A migration
//     re-appends each record to the target file's arena before the
//     cell commits there, so every file is self-contained and a resize
//     is also a compaction: only reachable records are copied.
#pragma once

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "nvm/arena.hpp"
#include "nvm/direct_pm.hpp"
#include "util/types.hpp"

namespace gh {

struct InlinePayload {
  static constexpr bool kInline = true;

  InlinePayload() = default;
  InlinePayload(nvm::DirectPM&, std::span<std::byte>, bool /*format*/) {}

  /// Bytes a resize target reserves for its payload (see ArenaPayload).
  static constexpr usize target_bytes(u64 /*live*/, u64 /*floor*/) { return 0; }
  template <class Table>
  [[nodiscard]] static constexpr u64 live_bytes(const Table&) { return 0; }
  [[nodiscard]] static constexpr u64 capacity() { return 0; }
  [[nodiscard]] static constexpr u64 remaining() { return 0; }
  /// Move the payload `value` names from `from`'s file into this one.
  static constexpr bool adopt(u64& /*value*/, const InlinePayload& /*from*/) { return true; }
};

class ArenaPayload {
 public:
  using Arena = nvm::PersistentArena<nvm::DirectPM>;
  static constexpr bool kInline = false;
  /// Record layout: value (u64) | key_len (u64) | key bytes, padded to
  /// the arena's 8-byte unit.
  static constexpr usize kRecordHeaderBytes = 2 * sizeof(u64);

  ArenaPayload() = default;
  ArenaPayload(nvm::DirectPM& pm, std::span<std::byte> mem, bool format) {
    arena_.emplace(pm, mem, format);
  }

  /// Region bytes of an arena for `data` record bytes, in whole lines so
  /// the table placed after it starts on one (CommitOrder::kSameLine).
  static usize region_bytes(u64 data) {
    return Arena::required_bytes(round_up(data, kCachelineSize));
  }

  /// A resize target's arena: twice the live records plus a page, and
  /// never smaller than `floor` — so the records a migration moves fill
  /// at most half of it, and compacting a full arena of live records
  /// grows it.
  static usize target_bytes(u64 live, u64 floor) {
    return region_bytes(std::max<u64>(2 * live + 4096, floor));
  }

  /// The whole record at `offset`: header and key bytes.
  [[nodiscard]] std::span<const std::byte> record(u64 offset) const {
    u64 key_len = 0;
    std::memcpy(&key_len, arena_->read(offset, kRecordHeaderBytes).data() + sizeof(u64),
                sizeof(u64));
    return arena_->read(offset, kRecordHeaderBytes + key_len);
  }

  /// Bytes of arena the records reachable from `table` occupy.
  template <class Table>
  [[nodiscard]] u64 live_bytes(const Table& table) const {
    u64 live = 0;
    table.for_each([&](const auto&, u64 offset) {
      live += round_up(record(offset).size(), kAtomicUnit);
    });
    return live;
  }

  /// Re-append the record `offset` names in `from`'s arena to this one
  /// and point `offset` at the copy. The copy is durable before the
  /// caller commits a cell to it; a crash in between leaves unreachable
  /// bytes the next compaction drops. False when this arena is full.
  bool adopt(u64& offset, const ArenaPayload& from) {
    const auto rec = from.record(offset);
    const auto moved = arena_->append(rec.data(), rec.size());
    if (!moved) return false;
    offset = *moved;
    return true;
  }

  [[nodiscard]] u64 capacity() const { return arena_ ? arena_->capacity() : 0; }
  [[nodiscard]] u64 remaining() const { return arena_ ? arena_->remaining() : 0; }
  [[nodiscard]] Arena& arena() { return *arena_; }
  [[nodiscard]] const Arena& arena() const { return *arena_; }

 private:
  std::optional<Arena> arena_;
};

}  // namespace gh
