// PersistentStringMap — string keys on top of group hashing.
//
// The paper's cells hold fixed-size keys (63-bit integers or 16-byte
// fingerprints). Real key-value workloads (memcached et al., the paper's
// own motivation in §1) have variable-size string keys. This layer
// composes two of this repository's primitives into a complete answer:
//
//   * keys are fingerprinted to 128 bits (MD5) and indexed by a
//     GroupHashTable<Cell32> — the paper's structure, unchanged;
//   * the full key bytes and the user value live in a PersistentArena
//     record; the hash cell's value field stores the record offset;
//   * get() verifies the stored key bytes, so a fingerprint collision is
//     detected (and reported) rather than silently merged;
//   * value updates are 8-byte atomic in-place overwrites of the record's
//     value word — no new allocation, no logging;
//   * deletes retract the cell (the paper's protocol); the orphaned
//     record is reclaimed by compact(), which rebuilds arena + table into
//     a fresh region and doubles them as needed (auto-triggered when
//     either fills).
//
// Consistency: every mutation is committed by exactly one 8-byte atomic
// store (arena head, cell commit word, or record value word), in the same
// spirit — and with the same recovery scan — as the paper's design.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.hpp"
#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/arena.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/op_scope.hpp"
#include "obs/snapshot.hpp"
#include "util/types.hpp"

namespace gh {

struct StringMapOptions {
  u64 initial_cells = 1ull << 12;  ///< hash cells (both levels)
  u32 group_size = 256;
  /// Arena bytes provisioned per hash cell (records are ~24B + key).
  usize arena_bytes_per_cell = 48;
  u64 flush_latency_ns = 0;
  bool auto_compact = true;  ///< rebuild+grow when table or arena fills
  /// Keep superseded regions mapped after compaction instead of unmapping
  /// them. Required by the optimistic concurrent wrapper
  /// (core/concurrent_string_map.hpp): a lock-free reader racing a
  /// compaction may still probe the retired table/arena and must hit
  /// mapped (stale) memory; its seqlock validation then discards the
  /// result.
  bool retain_retired_regions = false;
  /// Maintain per-group CRC32C checksums in the index table (and a
  /// checksummed superblock). Baked into the file at create() time.
  bool checksum_groups = true;
  /// Record per-op latency histograms (see obs/metrics.hpp). Always off
  /// when built with GH_OBS_OFF.
  bool record_latency = true;
  /// Time 1 in 2^shift ops (0 = every op). See obs::kDefaultSampleShift.
  u32 latency_sample_shift = obs::kDefaultSampleShift;
  /// Flight recorder (obs/flight_recorder.hpp): crash-surviving op-event
  /// rings in a `<path>.flight` sidecar (anonymous for in-memory maps).
  /// See MapOptions::flight_mode for the mode semantics. Always off (no
  /// sidecar) under GH_OBS_OFF.
  obs::FlightMode flight_mode = obs::FlightMode::kSampled;
};

class PersistentStringMap {
 public:
  static PersistentStringMap create(const std::string& path,
                                    const StringMapOptions& options = {});
  static PersistentStringMap create_in_memory(const StringMapOptions& options = {});
  /// Opens an existing map; runs recovery when the last shutdown was not
  /// clean (recovered_on_open() reports it).
  static PersistentStringMap open(const std::string& path,
                                  const StringMapOptions& options = {});

  PersistentStringMap(PersistentStringMap&&) noexcept = default;
  PersistentStringMap& operator=(PersistentStringMap&&) noexcept = default;
  ~PersistentStringMap();

  /// Insert or update. Throws std::runtime_error on a detected
  /// fingerprint collision (probability ~2^-128) and when full with
  /// auto_compact disabled. When the key cannot be placed and the
  /// compaction rebuild is currently failing (ENOSPC, allocation
  /// failure), throws MapDegradedError — the map keeps serving and
  /// retries the rebuild with capped exponential backoff on subsequent
  /// placement failures.
  void put(std::string_view key, u64 value);

  [[nodiscard]] std::optional<u64> get(std::string_view key);
  [[nodiscard]] bool contains(std::string_view key);
  bool erase(std::string_view key);

  /// Batched lookup: fingerprints every key, resolves offsets with the
  /// index table's prefetching find_batch, then verifies each hit's
  /// stored key bytes (collision detection identical to get()). out[i]
  /// receives the result for keys[i].
  void get_batch(std::span<const std::string_view> keys,
                 std::span<std::optional<u64>> out);

  /// Batched insert-or-update with coalesced persist fences: per window,
  /// existing keys get in-place 8-byte value overwrites sharing one
  /// fence, new keys append their records and insert their cells through
  /// the table's fence-coalesced insert_batch. Duplicate keys within the
  /// batch behave as sequential puts (last one wins). Space handling
  /// matches put() — compaction, then forced doubling, MapDegradedError
  /// while the rebuild is failing. Keys are applied in order, so on a
  /// throw every key before the failing one is already durably applied
  /// (and, because updates coalesce per window, in-place updates staged
  /// in the failing window may be applied too).
  void put_batch(std::span<const std::string_view> keys, std::span<const u64> values);

  /// Batched erase with coalesced fences (see
  /// hash::GroupHashTable::erase_batch). When `hits` is non-empty it must
  /// be keys.size() long; hits[i] is set to 1 if keys[i] was present.
  /// Duplicate keys within the batch behave sequentially.
  void erase_batch(std::span<const std::string_view> keys, std::span<u8> hits = {});

  /// Visit every (key, value). Key views are valid only during the call.
  template <class Fn>
  void for_each(Fn&& fn) const {
    table().for_each([&](const Key128&, u64 offset) {
      const Record rec = load_record(offset);
      fn(rec.key, rec.value);
    });
  }

  [[nodiscard]] u64 size() const { return table().count(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] bool recovered_on_open() const { return recovered_on_open_; }
  /// Test hook: full-rescan check of the index table's fingerprint-tag
  /// invariant (see hash::GroupHashTable::verify_tags).
  [[nodiscard]] bool debug_verify_tags() const { return table().verify_tags(); }
  /// Arena occupancy in bytes: `used` up to the append head, `live`
  /// still reachable from the table (the rest is garbage that compact()
  /// reclaims), and the arena's `capacity`. Zeros after abandon().
  struct ArenaUsage {
    u64 used = 0;
    u64 live = 0;
    u64 capacity = 0;
  };
  [[nodiscard]] ArenaUsage arena_usage() const;

  /// The unified stats sample (obs/snapshot.hpp). Safe to call at any
  /// point of the lifecycle, including after abandon() (all counters
  /// read zero then — abandon resets them coherently, simulating the
  /// crash of the process that owned them).
  [[nodiscard]] obs::Snapshot snapshot();

  /// Rebuild into a fresh region: drops orphaned arena records and grows
  /// table/arena to fit current contents with headroom. Called
  /// automatically by put() when space runs out (auto_compact).
  void compact();

  /// True while a compaction is owed but failing (see put()). Cleared by
  /// the put whose retried rebuild succeeds.
  [[nodiscard]] bool compact_pending() const { return compact_pending_; }
  [[nodiscard]] bool degraded() const { return compact_pending_; }
  [[nodiscard]] const std::string& last_compact_error() const { return last_compact_error_; }

  void close();

  /// Test hook: drop the mapping WITHOUT marking the map clean, exactly
  /// as a crash would. A file-backed map abandoned this way reopens
  /// through the recovery path (mmap writes are in the page cache, so the
  /// file holds everything stored before the "crash").
  void abandon();

  using Table = hash::GroupHashTable<hash::Cell32, nvm::DirectPM>;
  using Arena = nvm::PersistentArena<nvm::DirectPM>;

  /// MD5 fingerprint a key is indexed under (pure; public for the
  /// concurrent wrapper's lock-free read path).
  static Key128 fingerprint(std::string_view key);

  /// Immutable probing snapshot for optimistic readers: the table's cell
  /// arrays plus the arena's data window. Taken under the writer lock by
  /// the concurrent wrapper; stays dereferenceable (if stale) across
  /// compactions when retain_retired_regions is set.
  struct ReadSnapshot {
    const hash::Cell32* tab1 = nullptr;
    const hash::Cell32* tab2 = nullptr;
    u64 mask = 0;
    u32 group_size = 1;
    u64 seed = 0;
    const std::byte* arena_data = nullptr;
    u64 arena_capacity = 0;
    /// DRAM fingerprint-tag block (hash/tag_probe.hpp). Shared ownership:
    /// a snapshot retired by compaction keeps its (stale) tags alive for
    /// in-flight optimistic readers, exactly like the retained region.
    std::shared_ptr<const u8[]> tags;
    const u8* tags1 = nullptr;
    const u8* tags2 = nullptr;
  };
  [[nodiscard]] ReadSnapshot read_snapshot() const;

  /// Regions retired by compaction while retain_retired_regions is set.
  [[nodiscard]] usize retired_region_count() const { return retired_regions_.size(); }

  /// Stale `.compact` temp files (from a crashed publish) that open()
  /// reclaimed before trusting the map file.
  [[nodiscard]] u64 orphans_reclaimed_on_open() const { return orphans_reclaimed_; }

  /// What the open()-time scan of the `.flight` sidecar found (see
  /// GroupHashMap::flight_scan_on_open for semantics).
  [[nodiscard]] const obs::FlightScan& flight_scan_on_open() const { return flight_scan_; }

  /// The recovery report of the open()-time recovery pass (all zeros
  /// when the map was closed cleanly); `in_flight_ops` carries the
  /// flight recorder's forensics.
  [[nodiscard]] const hash::RecoveryReport& open_recovery_report() const {
    return open_recovery_;
  }

 private:

  struct Superblock;
  struct Record {
    std::string_view key;
    u64 value = 0;
  };

  PersistentStringMap() = default;

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  Arena& arena() { return *arena_; }
  const Arena& arena() const { return *arena_; }
  Superblock* superblock();
  void mark_state(u64 state);
  void init_region(nvm::NvmRegion region, const StringMapOptions& options, bool fresh);
  /// Open/format the `.flight` sidecar (see GroupHashMap::init_flight).
  void init_flight(const StringMapOptions& options, bool fresh);

  Record load_record(u64 offset) const;
  /// Appends a (value, key) record; nullopt when the arena is full.
  std::optional<u64> append_record(std::string_view key, u64 value);
  /// The put core of put/put_batch (each caller holds its own OpScope).
  /// `batch` selects the table's counted *_batch entry points over its
  /// scalar ones; both run the same window code.
  void put_keys(std::span<const std::string_view> keys, std::span<const Key128> fps,
                std::span<const u64> values, bool batch);
  /// Rebuild into a fresh region sized for the live contents with
  /// headroom; `double_table` also doubles the table, for when a
  /// same-size compaction cannot help (one over-full group re-hashes
  /// identically).
  void grow(bool double_table);
  void rebuild(u64 new_cells, usize new_arena_bytes);
  /// grow() after a placement failure, degrading gracefully: a failure
  /// (other than SimulatedCrash) records the pending state, arms the
  /// backoff, and returns false instead of throwing.
  bool try_grow(bool double_table);

  std::string path_;
  StringMapOptions options_;
  nvm::NvmRegion region_;
  std::vector<nvm::NvmRegion> retired_regions_;
  std::unique_ptr<nvm::DirectPM> pm_;
  std::optional<Table> table_;
  std::optional<Arena> arena_;
  // Heap-allocated like pm_: the registry holds its address across moves.
  std::unique_ptr<obs::OpRecorder> recorder_;
  // What every OpScope of this map feeds: recorder_ and flight_ (string
  // maps attribute no phases), plus the one sampling gate.
  obs::OpSinks sinks_;
  obs::Registration obs_reg_;
  // Flight recorder sidecar: its own PM (black-box traffic never
  // pollutes the map's write-efficiency counters) over its own region.
  std::unique_ptr<nvm::DirectPM> flight_pm_;
  nvm::NvmRegion flight_region_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::FlightScan flight_scan_;
  hash::RecoveryReport open_recovery_;
  u64 compactions_ = 0;
  u64 recoveries_ = 0;
  u64 compact_failures_ = 0;
  u64 compact_backoff_ = 0;   ///< current backoff window (placement-failure events)
  u64 compact_cooldown_ = 0;  ///< failures to absorb before the next retry
  std::string last_compact_error_;
  u64 orphans_reclaimed_ = 0;
  bool compact_pending_ = false;
  bool recovered_on_open_ = false;
  bool closed_ = false;
};

}  // namespace gh
