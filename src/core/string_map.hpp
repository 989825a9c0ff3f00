// PersistentStringMap — string keys on top of group hashing.
//
// The paper's cells hold fixed-size keys (63-bit integers or 16-byte
// fingerprints). Real key-value workloads (memcached et al., the paper's
// own motivation in §1) have variable-size string keys. This layer is
// the durable map core (core/group_hash_map.hpp) over ArenaPayload
// (core/payload.hpp), plus what only strings need:
//
//   * keys are fingerprinted to 128 bits (MD5) and indexed by the core's
//     GroupHashTable<Cell32> — the paper's structure, unchanged;
//   * the full key bytes and the user value live in a record in the map
//     file's arena; the cell's value word stores the record offset;
//   * get() verifies the stored key bytes, so a fingerprint collision is
//     detected (and reported) rather than silently merged;
//   * value updates are 8-byte atomic in-place overwrites of the record's
//     value word — no new allocation, no logging;
//   * deletes retract the cell (the paper's protocol); the orphaned
//     record is dropped by the next resize, which re-appends only the
//     reachable records to the target file's fresh arena. A full arena
//     starts a same-size migration (a compaction), a full table a
//     double-size one; both drain through the core's durable cursor like
//     any resize (MapOptions::migrate_groups_per_op).
//
// Everything durable — superblock, open/close/abandon, recovery,
// verify-on-open, scrub, flight journaling, the resize cursor and its
// backoff — is the core's. Consistency: every mutation is committed by
// exactly one 8-byte atomic store (arena head, cell commit word, or
// record value word), with the same recovery scan as the paper's design.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/group_hash_map.hpp"
#include "core/optimistic_read.hpp"
#include "util/types.hpp"

namespace gh {

struct StringMapOptions {
  /// The durable-map options: sizing, checksums, resize drain,
  /// observability. `auto_expand` covers compaction too.
  MapOptions map = {.initial_cells = 1ull << 12};
  /// Arena bytes provisioned per hash cell at create() (a record is 16
  /// bytes plus the key, rounded up to 8).
  usize arena_bytes_per_cell = 48;
};

class PersistentStringMap : private BasicGroupHashMap<hash::Cell32, ArenaPayload> {
  using Core = BasicGroupHashMap<hash::Cell32, ArenaPayload>;

 public:
  using Core::Table;
  using Options = StringMapOptions;
  using key_type = std::string_view;

  static PersistentStringMap create(const std::string& path,
                                    const StringMapOptions& options = {});
  static PersistentStringMap create_in_memory(const StringMapOptions& options = {});
  /// Opens an existing map; runs recovery when the last shutdown was not
  /// clean (recovered_on_open() reports it).
  static PersistentStringMap open(const std::string& path,
                                  const StringMapOptions& options = {});

  /// Insert or update. Throws std::runtime_error on a detected
  /// fingerprint collision (probability ~2^-128) and when full with
  /// auto_expand off. When the key cannot be placed and the resize is
  /// currently failing (ENOSPC, allocation failure), throws
  /// MapDegradedError — the map keeps serving and retries with capped
  /// exponential backoff on later placement failures.
  void put(std::string_view key, u64 value);

  [[nodiscard]] std::optional<u64> get(std::string_view key);
  [[nodiscard]] bool contains(std::string_view key) { return get(key).has_value(); }
  bool erase(std::string_view key);

  /// Batched lookup: fingerprints every key, resolves offsets with the
  /// index table's prefetching find_batch, then verifies each hit's
  /// stored key bytes (collision detection identical to get()). out[i]
  /// receives the result for keys[i].
  void get_batch(std::span<const std::string_view> keys, std::span<std::optional<u64>> out);

  /// Batched insert-or-update with coalesced persist fences: per window,
  /// existing keys get in-place 8-byte value overwrites sharing one
  /// fence, new keys append their records and insert their cells through
  /// the table's fence-coalesced window. Duplicate keys within the batch
  /// behave as sequential puts (last one wins). Space handling matches
  /// put(). Keys are applied in order, so on a throw every key before
  /// the failing one is already durably applied (and, because updates
  /// coalesce per window, in-place updates staged in the failing window
  /// may be applied too).
  void put_batch(std::span<const std::string_view> keys, std::span<const u64> values);

  /// Batched erase with coalesced fences. When `hits` is non-empty it
  /// must be keys.size() long; hits[i] is set to 1 if keys[i] was
  /// present. Duplicate keys within the batch behave sequentially.
  void erase_batch(std::span<const std::string_view> keys, std::span<u8> hits = {});

  /// Visit every (key, value). Key views are valid only during the call.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const auto visit = [&](const Table& t, const ArenaPayload& p) {
      t.for_each([&](const Key128&, u64 offset) {
        const Record rec = decode(p, offset);
        fn(rec.key, rec.value);
      });
    };
    if (mig_table_) visit(*mig_table_, mig_payload_);
    visit(table(), payload_);
  }

  /// Arena occupancy in bytes over every live map file: `used` up to the
  /// append heads, `live` still reachable from a table (the rest is
  /// garbage the next resize drops), and `capacity`. Zeros after
  /// abandon().
  struct ArenaUsage {
    u64 used = 0;
    u64 live = 0;
    u64 capacity = 0;
  };
  [[nodiscard]] ArenaUsage arena_usage() const;

  /// Reclaim the arena now: start a same-size migration into a fresh
  /// arena (or take the one running) and drain it to the end. A failing
  /// step leaves the map serving and degraded(), like an automatic one.
  void compact();

  // The durable lifecycle is the core's (see BasicGroupHashMap).
  using Core::abandon;
  using Core::capacity;
  using Core::close;
  using Core::corruption_detected_on_open;
  using Core::debug_verify_group_checksums;
  using Core::debug_verify_tags;
  using Core::degraded;
  using Core::empty;
  using Core::flight_scan_on_open;
  using Core::last_expand_error;
  using Core::load_factor;
  using Core::migrate_step;
  using Core::migration_active;
  using Core::open_recovery_report;
  using Core::open_scrub_report;
  using Core::orphans_reclaimed_on_open;
  using Core::recovered_on_open;
  using Core::retired_region_count;
  using Core::scrub;
  using Core::size;
  using Core::snapshot;
  using Core::structure_version;

  /// MD5 fingerprint a key is indexed under (pure).
  static Key128 fingerprint(std::string_view key);

  // What the concurrent wrapper (core/concurrent_map.hpp) needs for its
  // lock-free reads, as the core supplies for inline maps.
  /// An arena's data bytes as an optimistic reader may see them.
  struct ArenaWindow {
    const std::byte* data = nullptr;
    u64 capacity = 0;
  };
  /// Immutable probing snapshot: the core's read snapshot — dual
  /// (target, old table) during a migration — and the arena window of
  /// each of its tables. Stays dereferenceable, if stale, across resizes
  /// while retain_retired_regions keeps retired regions mapped.
  struct ReadSnapshot {
    core::TableReadView<hash::Cell32> view;
    ArenaWindow arena;      ///< records of view's primary table
    ArenaWindow old_arena;  ///< records of view's old table (dual views)
  };
  [[nodiscard]] ReadSnapshot read_snapshot() const;
  /// A key and its fingerprint, computed outside the epoch window.
  struct ProbeKey {
    std::string_view key;
    Key128 fp;
  };
  [[nodiscard]] static ProbeKey probe_key(std::string_view key) {
    return {key, fingerprint(key)};
  }
  /// Lock-free get over a snapshot: fingerprint probe (acquire loads),
  /// then the hit's record in the arena of the table that hit —
  /// bounds-checked against that arena's window — and its key bytes.
  /// False (escalate to the lock) on an out-of-window offset, a key
  /// length or key bytes that do not match: a torn read or a genuine
  /// collision, which the locked path re-checks and reports. True means
  /// `out` holds the answer iff the caller's epoch validates.
  [[nodiscard]] static bool optimistic_probe(const ReadSnapshot& snap, const ProbeKey& key,
                                             std::optional<u64>& out);
  /// optimistic_probe for each of `keys` in turn (out[i] for keys[i]);
  /// false as soon as one escalates.
  [[nodiscard]] static bool optimistic_probe_batch(const ReadSnapshot& snap,
                                                   std::span<const ProbeKey> keys,
                                                   std::span<std::optional<u64>> out);

 private:
  struct Record {
    std::string_view key;
    u64 value = 0;
  };
  /// A key's live cell: its record offset and the arena holding it
  /// (null when the key is absent).
  struct Hit {
    u64 offset = 0;
    ArenaPayload* payload = nullptr;
  };

  PersistentStringMap() = default;

  static Record decode(const ArenaPayload& payload, u64 offset);
  /// decode() plus the key check; throws on a fingerprint collision.
  static Record verified(const ArenaPayload& payload, u64 offset, std::string_view key);
  /// New-then-old lookup, as the core reads: out[i] locates fps[i]. At
  /// most one table window of keys.
  void locate(std::span<const Key128> fps, std::span<Hit> out, bool batch);
  /// 8-byte atomic overwrite of a record's value word, flushed; the
  /// caller fences.
  void store_value(ArenaPayload& payload, u64 offset, u64 value);
  /// The put window of put/put_batch (each caller holds its own
  /// OpScope). `batch` selects the table's counted *_batch entry points
  /// over its scalar ones; both run the same window code.
  void put_keys(std::span<const std::string_view> keys, std::span<const Key128> fps,
                std::span<const u64> values, bool batch);
};

}  // namespace gh
