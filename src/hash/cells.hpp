// Persistent hash-cell layouts and their failure-atomic commit protocols.
//
// NVM's failure-atomicity unit is 8 bytes, so each cell designates one
// 8-byte *commit word* holding the paper's 1-bit occupancy bitmap; all
// other fields are written and persisted *before* the commit word flips
// (insert) or *after* it flips back (delete). This is the whole
// consistency mechanism of group hashing (§3.3):
//
//   insert: write payload → persist → atomically set bitmap → persist
//   delete: atomically clear bitmap → persist → clear payload → persist
//
// Cell16 — the paper's 16-byte item (RandomNum / Bag-of-Words): the
// commit word packs the bitmap (bit 63) together with a 63-bit key, so
// publishing the key *is* the commit; the value occupies the other word.
//
// Cell32 — the paper's 32-byte item (Fingerprint, 16-byte keys): a
// dedicated meta word carries the bitmap plus a 16-bit key tag used to
// reject non-matching cells without reading the full key.
//
// Each protocol comes in two forms. publish()/retract() run one cell's
// insert/delete with its own fences; the baseline schemes and the 2H
// variant use them. The split stage/commit and clear/wipe halves let a
// caller share fences across a window of cells; GroupHashTable runs every
// insert and erase that way, a scalar op being a window of one.
//
// A third, same-line form (publish_same_line/retract_same_line) drops the
// fence between the halves: it relies on a cell never crossing a
// cacheline and on x86 persisting stores to one line in program order,
// so it needs more than 8-byte atomicity (GroupHashTable's
// CommitOrder::kSameLine, DESIGN.md "Same-line commit"):
//
//   insert: write payload → atomically set bitmap → flush the line
//   delete: atomically clear bitmap → clear payload → flush the line
//
// All mutation goes through a persistence-policy object PM (see
// nvm/direct_pm.hpp for the interface), which is how the crash simulator
// and the cache-simulator benches observe every NVM write.
#pragma once

#include <optional>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace gh::hash {

struct Cell16 {
  using key_type = u64;
  static constexpr usize kSize = 16;
  static constexpr u64 kOccupiedBit = 1ull << 63;
  /// Keys must leave bit 63 for the bitmap.
  static constexpr u64 kMaxKey = kOccupiedBit - 1;

  u64 word0 = 0;  ///< commit word: bitmap(63) | key(62..0)
  u64 value = 0;

  [[nodiscard]] bool occupied() const { return (word0 & kOccupiedBit) != 0; }
  [[nodiscard]] key_type key() const { return word0 & ~kOccupiedBit; }
  [[nodiscard]] bool matches(key_type k) const {
    return word0 == (k | kOccupiedBit);  // occupied test and key compare in one load
  }
  /// Non-zero payload in an unoccupied cell — garbage a recovery scan must
  /// scrub (a torn in-flight insert, or the tail of a committed delete).
  [[nodiscard]] bool payload_dirty() const { return word0 != 0 || value != 0; }

  /// Insert protocol (Algorithm 1, lines 4-7).
  template <class PM>
  void publish(PM& pm, key_type k, u64 v) {
    GH_DCHECK(k <= kMaxKey);
    pm.store_u64(&value, v);
    pm.persist(&value, sizeof(value));
    pm.atomic_store_u64(&word0, k | kOccupiedBit);
    pm.persist(&word0, sizeof(word0));
  }

  /// Delete protocol (Algorithm 3, lines 4-7): the atomic bitmap clear
  /// commits the delete *first*; the payload wipe after it is garbage
  /// collection that recovery redoes if interrupted. For this layout the
  /// single atomic store clears bitmap and key together.
  template <class PM>
  void retract(PM& pm) {
    pm.atomic_store_u64(&word0, 0);
    pm.persist(&word0, sizeof(word0));
    pm.store_u64(&value, 0);
    pm.persist(&value, sizeof(value));
  }

  /// Move an occupied cell's contents here (used by linear probing's
  /// backward-shift delete and PFHT's displacement). Same ordering as an
  /// insert; the source must be retracted afterwards by the caller.
  template <class PM>
  void publish_from(PM& pm, const Cell16& src) {
    publish(pm, src.key(), src.value);
  }

  /// Recovery scrub (Algorithm 4): zero the payload of an unoccupied cell.
  template <class PM>
  void scrub(PM& pm) {
    pm.store_u64(&word0, 0);
    pm.store_u64(&value, 0);
    pm.persist(this, kSize);
  }

  // --- windowed (fence-coalesced) protocol ---------------------------------
  // publish() split in two so a window of inserts shares two fences:
  //   stage_payload × n → fence → commit_staged × n → fence
  // The per-cell ordering invariant is identical to publish(): the commit
  // word can only become durable after the window's payload fence, so any
  // committed cell found by recovery has a durable payload.

  /// Phase 1: write the payload and flush its line, no fence.
  template <class PM>
  void stage_payload(PM& pm, key_type, u64 v) {
    pm.store_u64(&value, v);
    pm.flush(&value, sizeof(value));
  }

  /// Re-stage the value of a cell staged earlier in the same window
  /// (duplicate key inside one batch; the commit word is still unset).
  template <class PM>
  void stage_value(PM& pm, u64 v) {
    pm.store_u64(&value, v);
    pm.flush(&value, sizeof(value));
  }

  /// Phase 2 (after the window's payload fence): atomically set the
  /// commit word and flush it; the caller fences once per window.
  template <class PM>
  void commit_staged(PM& pm, key_type k) {
    GH_DCHECK(k <= kMaxKey);
    pm.atomic_store_u64(&word0, k | kOccupiedBit);
    pm.flush(&word0, sizeof(word0));
  }

  // retract() split the same way for windowed erase:
  //   retract_commit × n → fence → retract_wipe × n → fence
  // Mandatory order for this layout: word0 carries the key, so a wipe
  // must never reach media while the old commit word could still be live.

  /// Phase 1: atomically clear the commit word and flush, no fence.
  template <class PM>
  void retract_commit(PM& pm) {
    pm.atomic_store_u64(&word0, 0);
    pm.flush(&word0, sizeof(word0));
  }

  /// Phase 2 (after the clears' fence): wipe the payload and flush.
  template <class PM>
  void retract_wipe(PM& pm) {
    pm.store_u64(&value, 0);
    pm.flush(&value, sizeof(value));
  }

  // --- same-line protocol: one flush, the caller fences once per window --

  template <class PM>
  void publish_same_line(PM& pm, key_type k, u64 v) {
    GH_DCHECK(k <= kMaxKey);
    pm.store_u64(&value, v);
    pm.atomic_store_u64(&word0, k | kOccupiedBit);
    pm.flush(this, kSize);
  }

  template <class PM>
  void retract_same_line(PM& pm) {
    pm.atomic_store_u64(&word0, 0);
    pm.store_u64(&value, 0);
    pm.flush(this, kSize);
  }
};
static_assert(sizeof(Cell16) == Cell16::kSize);

struct Cell32 {
  using key_type = Key128;
  static constexpr usize kSize = 32;
  static constexpr u64 kOccupiedBit = 1ull << 63;

  u64 meta = 0;  ///< commit word: bitmap(63) | key tag(15..0)
  u64 key_lo = 0;
  u64 key_hi = 0;
  u64 value = 0;

  static u64 tag_of(const Key128& k) { return (k.lo ^ (k.lo >> 16) ^ k.hi) & 0xffff; }

  [[nodiscard]] bool occupied() const { return (meta & kOccupiedBit) != 0; }
  [[nodiscard]] key_type key() const { return Key128{key_lo, key_hi}; }
  [[nodiscard]] bool matches(const Key128& k) const {
    return meta == (kOccupiedBit | tag_of(k)) && key_lo == k.lo && key_hi == k.hi;
  }
  [[nodiscard]] bool payload_dirty() const {
    return meta != 0 || key_lo != 0 || key_hi != 0 || value != 0;
  }

  template <class PM>
  void publish(PM& pm, const Key128& k, u64 v) {
    pm.store_u64(&key_lo, k.lo);
    pm.store_u64(&key_hi, k.hi);
    pm.store_u64(&value, v);
    pm.persist(&key_lo, 3 * sizeof(u64));
    pm.atomic_store_u64(&meta, kOccupiedBit | tag_of(k));
    pm.persist(&meta, sizeof(meta));
  }

  template <class PM>
  void retract(PM& pm) {
    pm.atomic_store_u64(&meta, 0);
    pm.persist(&meta, sizeof(meta));
    pm.store_u64(&key_lo, 0);
    pm.store_u64(&key_hi, 0);
    pm.store_u64(&value, 0);
    pm.persist(&key_lo, 3 * sizeof(u64));
  }

  template <class PM>
  void publish_from(PM& pm, const Cell32& src) {
    publish(pm, src.key(), src.value);
  }

  template <class PM>
  void scrub(PM& pm) {
    pm.store_u64(&meta, 0);
    pm.store_u64(&key_lo, 0);
    pm.store_u64(&key_hi, 0);
    pm.store_u64(&value, 0);
    pm.persist(this, kSize);
  }

  // --- windowed (fence-coalesced) protocol — see Cell16 for the shape -----

  template <class PM>
  void stage_payload(PM& pm, const Key128& k, u64 v) {
    pm.store_u64(&key_lo, k.lo);
    pm.store_u64(&key_hi, k.hi);
    pm.store_u64(&value, v);
    pm.flush(&key_lo, 3 * sizeof(u64));
  }

  template <class PM>
  void stage_value(PM& pm, u64 v) {
    pm.store_u64(&value, v);
    pm.flush(&value, sizeof(value));
  }

  template <class PM>
  void commit_staged(PM& pm, const Key128& k) {
    pm.atomic_store_u64(&meta, kOccupiedBit | tag_of(k));
    pm.flush(&meta, sizeof(meta));
  }

  template <class PM>
  void retract_commit(PM& pm) {
    pm.atomic_store_u64(&meta, 0);
    pm.flush(&meta, sizeof(meta));
  }

  template <class PM>
  void retract_wipe(PM& pm) {
    pm.store_u64(&key_lo, 0);
    pm.store_u64(&key_hi, 0);
    pm.store_u64(&value, 0);
    pm.flush(&key_lo, 3 * sizeof(u64));
  }

  template <class PM>
  void publish_same_line(PM& pm, const Key128& k, u64 v) {
    pm.store_u64(&key_lo, k.lo);
    pm.store_u64(&key_hi, k.hi);
    pm.store_u64(&value, v);
    pm.atomic_store_u64(&meta, kOccupiedBit | tag_of(k));
    pm.flush(this, kSize);
  }

  template <class PM>
  void retract_same_line(PM& pm) {
    pm.atomic_store_u64(&meta, 0);
    pm.store_u64(&key_lo, 0);
    pm.store_u64(&key_hi, 0);
    pm.store_u64(&value, 0);
    pm.flush(this, kSize);
  }
};
static_assert(sizeof(Cell32) == Cell32::kSize);

}  // namespace gh::hash
