// Lock-free optimistic probing of a group-hashing table.
//
// The paper's commit protocol (§3.3) publishes every insert/delete with
// one 8-byte atomic store of the cell's commit word, which makes the
// table naturally readable without locks: a reader that (1) snapshots a
// shard's seqlock epoch, (2) probes with atomic loads, and (3) validates
// the epoch has observed a state some quiescent moment could have shown.
// Torn or stale intermediate states are rejected by the validation and
// retried (see util/seqlock.hpp for the fence discipline).
//
// Three pieces live here:
//
//   * optimistic_read — the retry loop around (1)-(3) that every
//     concurrent wrapper runs, with its contention accounting and the
//     fallback to the lock;
//
//   * TableReadView — an immutable snapshot of the probing parameters
//     (cell pointers, mask, group size, hash seed). The concurrent
//     wrappers publish a fresh heap-allocated view whenever expansion
//     replaces a shard's table, and retire — but never free — the old
//     view and its region, so a stale reader dereferences only mapped
//     memory and is then corrected by epoch validation.
//
//   * optimistic_find — Algorithm 2 over a view, using acquire loads on
//     every cell word. Acquire pairs with DirectPM's release stores, so a
//     matching commit word guarantees the payload read afterwards is the
//     one published with it (or newer — in which case validation fails).
//
// All loads are atomic, so this path is clean under ThreadSanitizer by
// construction rather than by suppression.
// Fingerprint-tag filtering on this path scans the group's DRAM tag
// bytes with per-byte relaxed atomic loads (NOT the SIMD sweep — mixed
// plain/atomic accesses of bytes a writer is mutating would race; the
// seqlock epoch validation is what makes the filtered result trustworthy:
// a writer racing with the scan holds the write lock, so validation fails
// and the probe retries). The view holds shared ownership of the tag
// block, so a retired view's tags outlive the expansion that replaced
// the table, exactly like the retained region.
// A single-key probe first prefetches its level-1 tag byte, its level-1
// cell and its level-2 group's tag lines (hash::prefetch_probe_lines, as
// the locked single-key probes do); a batch runs the staged kernel
// (hash::staged_probe, as the locked find_batch does) under the same
// load policy. A prefetch is a hint, not an access: it cannot race,
// fault on a retired view's memory, or feed a value into the probe, so
// it needs no epoch. It is what makes the byte-atomic loop affordable:
// the loop's cost is the misses it waits on, and those are now in flight
// together instead of one after the other.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "hash/hash_functions.hpp"
#include "hash/staged_probe.hpp"
#include "hash/tag_probe.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh::core {

[[nodiscard]] inline u64 atomic_load_acquire(const u64& word) {
  return std::atomic_ref<u64>(const_cast<u64&>(word)).load(std::memory_order_acquire);
}

/// The optimistic read of every concurrent wrapper: run `probe` under a
/// stable epoch and keep its answer if the epoch validates. An odd epoch
/// is a writer mid-section: the read spins on the epoch word until it
/// moves (one read_retry per section waited out), then probes. A failed
/// validation is a retry as well. The read gives up (one read_fallback)
/// after `attempts` failed validations (writer churn), when its waits
/// outlast one SpinBudget (a long section: a 64-key window, a resize
/// drain), or at once when `probe` returns false to escalate — its answer
/// cannot be trusted even under a valid epoch (an anomalous record).
/// `attempts` = 0 gives up before probing: the mutex baseline.
/// True when `probe`'s outputs hold a validated answer; false when the
/// caller must read under the lock.
/// Forced inline: every read path runs through here, and an out-of-line
/// copy would add a call and spill the probe's captures on each get.
template <class Probe>
[[nodiscard, gnu::always_inline]] inline bool optimistic_read(const SeqLock& lock,
                                                              LockContention& contention,
                                                              u32 attempts, Probe&& probe) {
  u64 retries = 0;
  SpinBudget budget;
  for (u32 failed = 0; failed < attempts;) {
    const u64 epoch = lock.read_begin();
    if (!SeqLock::epoch_stable(epoch)) {
      ++retries;
      if (!lock.wait_past(epoch, budget)) break;
      continue;
    }
    const bool conclusive = probe();
    if (lock.read_validate(epoch) && conclusive) {
      if (retries != 0) contention.count_read(retries, /*fell_back=*/false);
      return true;
    }
    if (!conclusive) break;
    ++retries;
    ++failed;
  }
  contention.count_read(retries, /*fell_back=*/true);
  return false;
}

/// Atomic-read equivalent of Cell16::matches + value fetch.
[[nodiscard]] inline std::optional<u64> optimistic_read_cell(const hash::Cell16& cell,
                                                             u64 key) {
  const u64 word0 = atomic_load_acquire(cell.word0);
  if (word0 != (key | hash::Cell16::kOccupiedBit)) return std::nullopt;
  return atomic_load_acquire(cell.value);
}

/// Atomic-read equivalent of Cell32::matches + value fetch.
[[nodiscard]] inline std::optional<u64> optimistic_read_cell(const hash::Cell32& cell,
                                                             const Key128& key) {
  const u64 meta = atomic_load_acquire(cell.meta);
  if (meta != (hash::Cell32::kOccupiedBit | hash::Cell32::tag_of(key))) return std::nullopt;
  if (atomic_load_acquire(cell.key_lo) != key.lo) return std::nullopt;
  if (atomic_load_acquire(cell.key_hi) != key.hi) return std::nullopt;
  return atomic_load_acquire(cell.value);
}

/// One table's probe parameters under the optimistic load policy:
/// acquire loads of cell words and relaxed per-byte tag loads. Serves the
/// single-key optimistic_probe and, as staged_probe()'s probe set, the
/// batched one. Its tag sweeps stay scalar: mixed plain/atomic accesses
/// of bytes a writer is mutating would race (see the file comment).
template <class Cell>
struct OptimisticProbe {
  using key_type = typename Cell::key_type;
  const Cell* tab1 = nullptr;
  const Cell* tab2 = nullptr;
  u64 mask = 0;
  u32 group_size = 1;
  const u8* tags1 = nullptr;
  const u8* tags2 = nullptr;
  hash::SeededHash hash_fn{0};

  [[nodiscard]] u64 hash(const key_type& key) const { return hash_fn(key); }
  [[nodiscard]] u64 group_of(u64 h) const {
    const u64 k = h & mask;
    return k - k % group_size;
  }

  void prefetch_home(u64 h) const { hash::prefetch_home_lines(tab1, tags1, h & mask); }
  void prefetch_group_tags(u64 h) const {
    hash::prefetch_group_tag_lines(tags2, group_of(h), group_size);
  }
  u32 prefetch_candidates(u64 h) const {
    const u64 j = group_of(h);
    const u8 tag = hash::tag_of_hash(h);
    u32 issued = 0;
    for (u32 i = 0; i < group_size; ++i) {
      if (hash::tag_load_relaxed(tags2 + j + i) == tag) {
        __builtin_prefetch(&tab2[j + i], /*rw=*/0, /*locality=*/1);
        ++issued;
      }
    }
    return issued;
  }

  /// The level-1 half: true (with `out` set) when the home cell holds
  /// `key`.
  bool probe_home(const key_type& key, u64 h, std::optional<u64>& out) const {
    const u64 k = h & mask;
    if (hash::tag_load_relaxed(tags1 + k) != hash::tag_of_hash(h)) return false;
    out = optimistic_read_cell(tab1[k], key);
    return out.has_value();
  }

  /// The level-2 half as staged_probe() runs it: a key whose stage-C
  /// sweep found no candidate is absent from the group.
  [[nodiscard]] std::optional<u64> probe_group(const key_type& key, u64 h,
                                               u32 candidates) const {
    return candidates == 0 ? std::nullopt : scan_group(key, h);
  }

  /// The level-2 half: the tag-filtered group scan.
  [[nodiscard]] std::optional<u64> scan_group(const key_type& key, u64 h) const {
    const u64 j = group_of(h);
    const u8 tag = hash::tag_of_hash(h);
    for (u32 i = 0; i < group_size; ++i) {
      if (hash::tag_load_relaxed(tags2 + j + i) != tag) continue;
      if (const auto hit = optimistic_read_cell(tab2[j + i], key)) return hit;
    }
    return std::nullopt;
  }
};

/// Immutable probing snapshot of one GroupHashTable — or, during a
/// resize, of the pair (migration target, draining old table).
/// Values, not references: a view stays usable (if stale) after the
/// table object it was taken from is re-emplaced by expansion.
template <class Cell>
struct TableReadView {
  const Cell* tab1 = nullptr;
  const Cell* tab2 = nullptr;
  u64 mask = 0;
  u32 group_size = 1;
  hash::SeededHash hash{0};
  std::shared_ptr<const u8[]> tags;  ///< keeps the DRAM tag block alive
  const u8* tags1 = nullptr;
  const u8* tags2 = nullptr;
  // Secondary probe set: the draining old table while a migration runs
  // (null old_tab1 = single-table view). The primary set above is the
  // migration target — reads are new-table-first, so a key duplicated by
  // a crash between copy and erase resolves to its authoritative copy.
  // Both tables share the hash seed (the resize preserves it), so one
  // hash computation serves both probes.
  const Cell* old_tab1 = nullptr;
  const Cell* old_tab2 = nullptr;
  u64 old_mask = 0;
  u32 old_group_size = 1;
  std::shared_ptr<const u8[]> old_tags;
  const u8* old_tags1 = nullptr;
  const u8* old_tags2 = nullptr;

  template <class PM>
  [[nodiscard]] static TableReadView of(const hash::GroupHashTable<Cell, PM>& table) {
    TableReadView v;
    v.tab1 = &table.level1_cell(0);
    v.tab2 = &table.level2_cell(0);
    v.mask = table.level_cells() - 1;
    v.group_size = table.group_size();
    v.hash = hash::SeededHash(table.seed());
    v.tags = table.tags_shared();
    v.tags1 = v.tags.get();
    v.tags2 = v.tags1 + table.level_cells();
    return v;
  }

  /// Dual-table view for a resize: probe `primary` (the
  /// migration target) first, then `old` on a miss.
  template <class PM>
  [[nodiscard]] static TableReadView dual(const hash::GroupHashTable<Cell, PM>& primary,
                                          const hash::GroupHashTable<Cell, PM>& old) {
    TableReadView v = of(primary);
    v.old_tab1 = &old.level1_cell(0);
    v.old_tab2 = &old.level2_cell(0);
    v.old_mask = old.level_cells() - 1;
    v.old_group_size = old.group_size();
    v.old_tags = old.tags_shared();
    v.old_tags1 = v.old_tags.get();
    v.old_tags2 = v.old_tags1 + old.level_cells();
    return v;
  }

  [[nodiscard]] bool dual_view() const { return old_tab1 != nullptr; }
  /// The migration target's (or the only table's) probe set.
  [[nodiscard]] OptimisticProbe<Cell> primary() const {
    return {tab1, tab2, mask, group_size, tags1, tags2, hash};
  }
  /// The draining old table's probe set (dual views only).
  [[nodiscard]] OptimisticProbe<Cell> old() const {
    return {old_tab1, old_tab2, old_mask, old_group_size, old_tags1, old_tags2, hash};
  }
};

/// One table's share of Algorithm 2: tag-filtered probe of a level-1
/// cell and its level-2 group through one probe set. The probe's lines
/// are prefetched before its first tag load, so the misses on the tag
/// byte, the level-1 cell and the level-2 tag lines overlap.
template <class Cell>
[[nodiscard]] std::optional<u64> optimistic_probe(const OptimisticProbe<Cell>& set, u64 h,
                                                  const typename Cell::key_type& key) {
  hash::prefetch_probe_lines(set.tab1, set.tags1, set.tags2, set.mask, set.group_size, h);
  std::optional<u64> out;
  if (set.probe_home(key, h, out)) return out;
  return set.scan_group(key, h);
}

/// Algorithm 2 over a view, tag-filtered. The tag scan and the cell reads
/// happen under ONE epoch check (the caller validates after this
/// returns): a validated probe implies no writer touched the shard, so
/// the tag⟺cell invariant held for the whole scan and the filter cannot
/// have produced a false negative. The result is only meaningful if that
/// validation succeeds. A dual view (mid-resize) probes the migration
/// target first and the old table on a miss — one epoch covers both, so
/// "miss in the target, then its group migrates, then hit stale in the
/// old table" cannot validate.
template <class Cell>
[[nodiscard]] std::optional<u64> optimistic_find(const TableReadView<Cell>& view,
                                                 const typename Cell::key_type& key) {
  const u64 h = view.hash(key);
  if (const auto hit = optimistic_probe(view.primary(), h, key)) return hit;
  if (!view.dual_view()) return std::nullopt;
  return optimistic_probe(view.old(), h, key);
}

/// optimistic_find for a batch, through the staged kernel: out[i]
/// receives keys[i]'s answer. Every out[] entry is rewritten, so a
/// retried section starts clean. A dual view runs a second kernel pass
/// over the old table for the target's misses, under the same epoch.
template <class Cell>
void optimistic_find_batch(const TableReadView<Cell>& view,
                           std::span<const typename Cell::key_type> keys,
                           std::span<std::optional<u64>> out) {
  OptimisticProbe<Cell> primary = view.primary();
  hash::staged_probe(primary, keys, out, /*misses_only=*/false);
  if (!view.dual_view()) return;
  OptimisticProbe<Cell> old = view.old();
  hash::staged_probe(old, keys, out, /*misses_only=*/true);
}

}  // namespace gh::core
