// GroupHashMap — the user-facing persistent key-value map built on group
// hashing. This is the library API a downstream application adopts:
//
//   auto map = gh::GroupHashMap::create("/mnt/pmem/index.gh", {});
//   map.put(42, 1000);
//   map.close();                       // clean shutdown
//   ...
//   auto map2 = gh::GroupHashMap::open("/mnt/pmem/index.gh");
//   // after a crash, open() runs Algorithm-4 recovery automatically
//
// On top of the raw table (src/hash/group_hashing.hpp) this layer adds:
//   * a superblock with magic/version and a clean/dirty state flag, so
//     open() knows whether the last shutdown was orderly — and so whether
//     the tables' count and checksum words, which a mutation stores but
//     never flushes, were sealed (clean) or must be recomputed (dirty);
//   * checked semantics: put() is an upsert, duplicate inserts cannot
//     create duplicate cells;
//   * automatic expansion: when an insert finds its level-2 group full
//     (the paper's "capacity needs to be expanded" signal) the map
//     migrates into a table twice the size behind a durable cursor —
//     all at once or a few groups per op (MapOptions::
//     migrate_groups_per_op); file-backed maps publish it by rename;
//   * a choice of key widths: GroupHashMap (63-bit integer keys) and
//     GroupHashMapWide (128-bit keys, e.g. content fingerprints);
//   * a payload policy (core/payload.hpp): values inline in the cells,
//     or — for PersistentStringMap — records in the file's own arena,
//     re-appended to the target's arena as a resize moves their cells.
//     A full arena starts a same-size migration (a compaction), a full
//     table a double-size one.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/errors.hpp"
#include "core/optimistic_read.hpp"
#include "core/payload.hpp"
#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/op_scope.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/types.hpp"

namespace gh {

/// MapOptions::migrate_groups_per_op value that finishes a resize inside
/// the op that triggered it.
inline constexpr u32 kDrainAllGroups = ~u32{0};

struct MapOptions {
  /// Total cell budget (level 1 + level 2); rounded up to a power of two.
  u64 initial_cells = 1ull << 16;
  /// Cells per group (paper default 256; power of two).
  u32 group_size = 256;
  u64 hash_seed = hash::kDefaultSeed1;
  /// Emulated NVM write latency injected after each cacheline flush.
  /// 0 = run at memory speed (real persistent memory, or no emulation).
  u64 flush_latency_ns = 0;
  /// Resize when an insert finds no room instead of throwing: a double-
  /// size table when it finds no free cell, and for a string map a
  /// same-size one with a fresh arena when its arena is full.
  bool auto_expand = true;
  /// Keep the old region mapped (instead of unmapping it) when a resize
  /// retires it. Required by the optimistic concurrent
  /// wrapper: a lock-free reader racing an expansion may still probe the
  /// retired table, and must hit mapped (stale) memory — its seqlock
  /// validation then discards the result. Doubling bounds the total
  /// retired footprint below the live table's size.
  bool retain_retired_regions = false;
  /// Maintain per-group CRC32C checksums in the table (and a checksummed
  /// superblock), so at-rest corruption is detected instead of served.
  /// Costs one 8-byte store per touched group per mutation, a CRC32C of
  /// each mutated cell, and 16 bytes per group; no flush or fence — a map
  /// leaves the checksum words to recovery and seals them at close()
  /// (hash::CountMode::kRecoveryOnly). bench/ablation_integrity measures
  /// the raw table's eager variant. The setting is baked into the file at
  /// create() time — open() follows whatever the image says.
  bool checksum_groups = true;
  /// Verify every group checksum when open()ing a cleanly closed map.
  /// Groups that fail are quarantined and their cells reported through
  /// on_lost_cell; open_scrub_report() summarises what was found. (A
  /// dirty open runs recovery instead, which rebuilds the checksums.)
  bool verify_on_open = true;
  /// What scrub/verification does with the occupied cells of a group
  /// whose checksum fails (see hash::ScrubMode).
  hash::ScrubMode scrub_mode = hash::ScrubMode::kDropGroup;
  /// Invoked for every cell a scrub pass drops or salvages — the hook an
  /// application uses to re-ingest lost keys from an upstream source.
  std::function<void(const hash::LostCell&)> on_lost_cell = nullptr;
  /// Record per-op latency histograms (see obs/metrics.hpp). Always off
  /// when built with GH_OBS_OFF.
  bool record_latency = true;
  /// Time 1 in 2^shift ops (0 = every op). See obs::kDefaultSampleShift
  /// for why timing every op is expensive on virtualized TSCs.
  u32 latency_sample_shift = obs::kDefaultSampleShift;
  /// Flight recorder (obs/flight_recorder.hpp): a crash-surviving ring
  /// of op-event records in a `<path>.flight` sidecar (anonymous memory
  /// for in-memory maps). kSampled journals 1 in
  /// 2^obs::kFlightSampleShift data ops plus every lifecycle op; kFull
  /// journals everything; kOff writes nothing and creates no sidecar.
  /// Always off (and no sidecar is ever created) under GH_OBS_OFF.
  obs::FlightMode flight_mode = obs::FlightMode::kSampled;
  /// Groups of the old table a resize moves per mutating op. A resize
  /// creates and publishes a double-sized target (`<path>.migrate`, own
  /// superblock) and rehashes the old table into it group by group. The
  /// op whose insert found no free cell drains up to this many groups
  /// before placing its key, every later mutating op drains up to this
  /// many more ("help-along"), and migrate_step() drains the rest from a
  /// maintenance tick. Reads probe new-then-old while groups remain. The
  /// cursor is durable (an 8-byte self-checksummed word in the
  /// superblock), so a crash mid-resize resumes where it stopped, and an
  /// image with an interrupted resize resumes on open() whatever this
  /// says. kDrainAllGroups (the default) finishes the resize inside the
  /// triggering op; 1 bounds every op's stall to one group; 0 leaves the
  /// drain to migrate_step() alone.
  u32 migrate_groups_per_op = kDrainAllGroups;
};

class PersistentStringMap;

template <class Cell, class Payload = InlinePayload>
class BasicGroupHashMap {
 public:
  using key_type = typename Cell::key_type;
  using Table = hash::GroupHashTable<Cell, nvm::DirectPM>;
  using Options = MapOptions;

  /// Create a fresh file-backed map (truncates an existing file).
  static BasicGroupHashMap create(const std::string& path, const MapOptions& options = {});

  /// Create a map backed by anonymous memory (contents die with the
  /// process; useful for tests and volatile caches).
  static BasicGroupHashMap create_in_memory(const MapOptions& options = {});

  /// Open an existing file-backed map. If the map was not closed cleanly,
  /// recovery (Algorithm 4) runs before the map is usable;
  /// recovered_on_open() reports that it did.
  static BasicGroupHashMap open(const std::string& path, const MapOptions& options = {});

  BasicGroupHashMap(BasicGroupHashMap&&) noexcept = default;
  BasicGroupHashMap& operator=(BasicGroupHashMap&&) noexcept = default;
  ~BasicGroupHashMap();

  /// Throws std::invalid_argument, before anything is read or written,
  /// for a key the cell layout cannot store: a Cell16 key above kMaxKey,
  /// whose top bit is the commit bit (stored or probed, it would alias
  /// the key without that bit); every other key passes. Every entry
  /// point that takes a key calls it.
  static void check_keys(std::span<const key_type> keys) {
    if constexpr (requires { Cell::kMaxKey; }) {
      for (const key_type& key : keys) {
        if (key > Cell::kMaxKey) throw std::invalid_argument("key above Cell16::kMaxKey");
      }
    }
  }

  /// Insert or update. Throws std::invalid_argument for a key check_keys
  /// rejects. May expand the map; throws std::runtime_error when
  /// the map is full and auto_expand is off. When the key cannot be
  /// placed and expansion is currently failing (ENOSPC, allocation
  /// failure), throws MapDegradedError instead — the map keeps serving at
  /// elevated load factor and retries the expansion with capped
  /// exponential backoff on subsequent placement failures.
  void put(const key_type& key, u64 value);

  /// Lookups and erases reject keys as put() does.
  [[nodiscard]] std::optional<u64> get(const key_type& key);
  [[nodiscard]] bool contains(const key_type& key);

  /// Read-modify-write in one lookup: adds `delta` to the key's value
  /// (inserting `delta` if absent) and returns the new value. Rejects
  /// keys as put() does. The value
  /// overwrite is a single 8-byte atomic store, so a crash leaves either
  /// the old or the new counter — never a torn one.
  u64 increment(const key_type& key, u64 delta = 1);

  /// Batched lookup through the staged kernel (see
  /// hash::GroupHashTable::find_batch). out[i] receives the result for
  /// keys[i]. During a resize the old table re-probes only the target's
  /// misses (find_batch_misses); nothing is allocated per call.
  void get_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out);

  /// Batched insert-or-update with coalesced persist fences (see
  /// hash::GroupHashTable::upsert_batch): within a window, payload
  /// flushes share one fence and commit flushes share another, so the
  /// fence cost amortises across keys while each cell still commits with
  /// its own 8-byte atomic store. Keys are applied strictly in order;
  /// duplicate keys within the batch behave as sequential puts (last one
  /// wins). A key check_keys rejects throws before any key is applied.
  /// Expansion (and its failure modes) matches put(): throws
  /// std::runtime_error when full with auto_expand off, MapDegradedError
  /// when expansion is failing — keys before the failing one are already
  /// durably applied.
  void put_batch(std::span<const key_type> keys, std::span<const u64> values);

  /// Removes the key; returns whether it was present.
  bool erase(const key_type& key);

  /// Batched erase with coalesced persist fences (see
  /// hash::GroupHashTable::erase_batch). When `hits` is non-empty it must
  /// be keys.size() long; hits[i] is set to 1 if keys[i] was present.
  /// Duplicate keys within the batch behave sequentially (the second
  /// erase of a key misses).
  void erase_batch(std::span<const key_type> keys, std::span<u8> hits = {});

  /// Visit all (key, value) pairs. During a resize the live set
  /// is split across the migration target and the old table (disjoint:
  /// a group's cells are cleared from the old table only after they are
  /// committed in the new one), so both are walked.
  template <class Fn>
  void for_each(Fn&& fn) const {
    if (mig_table_) mig_table_->for_each(fn);
    table().for_each(fn);
  }

  [[nodiscard]] u64 size() const {
    return table().count() + (mig_table_ ? mig_table_->count() : 0);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] u64 capacity() const {
    return table().capacity() + (mig_table_ ? mig_table_->capacity() : 0);
  }
  [[nodiscard]] double load_factor() const {
    const u64 cap = capacity();
    return cap == 0 ? 0.0 : static_cast<double>(size()) / static_cast<double>(cap);
  }
  [[nodiscard]] bool recovered_on_open() const { return recovered_on_open_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// The unified stats sample (obs/snapshot.hpp): persist + table-op +
  /// scrub + lifecycle + per-op latency in one plain-value struct. Safe
  /// to call at any point of the lifecycle, including after abandon()
  /// (all counters read zero then — abandon resets them, simulating the
  /// crash of the process that owned them).
  [[nodiscard]] obs::Snapshot snapshot();

  /// Atomically-readable live view (phase attribution + migration
  /// gauges): the ONLY map state another thread may poll while this
  /// thread mutates the map (gh_serve's stats ticker). Everything else,
  /// snapshot() included, is owner-thread-only.
  [[nodiscard]] const obs::LiveObs* live_obs() const { return live_obs_.get(); }

  /// Direct access to the underlying table, for the concurrent wrappers
  /// (optimistic read-view snapshots) and inspection tooling. The
  /// reference is invalidated by expansion — callers synchronize.
  [[nodiscard]] Table& raw_table() { return table(); }
  [[nodiscard]] const Table& raw_table() const { return table(); }

  /// Regions retired by expansion while retain_retired_regions is set.
  [[nodiscard]] usize retired_region_count() const { return retired_regions_.size(); }

  /// Force an Algorithm-4 recovery pass (normally done by open()).
  hash::RecoveryReport recover_now();

  /// Incremental integrity pass: verify the checksums of up to
  /// `max_groups` groups, resuming where the previous call stopped and
  /// wrapping around — call it from a background maintenance tick to
  /// bound per-call latency. Groups that fail are quarantined and their
  /// cells reported through MapOptions::on_lost_cell. No-op (empty
  /// report) when the map was created without checksum_groups.
  hash::ScrubReport scrub(u64 max_groups = ~0ull);

  /// True while a resize is draining groups into the new table.
  [[nodiscard]] bool migration_active() const { return mig_table_.has_value(); }

  /// Next source group the migration will drain (groups below it are
  /// already moved and erased from the old table). Meaningful only while
  /// migration_active().
  [[nodiscard]] u64 migration_cursor() const { return mig_cursor_; }

  /// The in-progress migration target table (nullptr when inactive) —
  /// for tests and inspection.
  [[nodiscard]] const Table* migration_table() const {
    return mig_table_ ? &*mig_table_ : nullptr;
  }

  /// Advance an active migration by up to `max_groups` source groups,
  /// finalizing (rename publish + old-region retire) when the cursor
  /// reaches the end. Returns the number of groups drained; 0 when no
  /// migration is active. This is the background-drain hook — the
  /// service shard worker calls it on idle ticks so a resize completes
  /// even without write traffic.
  u64 migrate_step(u64 max_groups);

  /// Bumped whenever the probe geometry changes: migration start, resume
  /// and finalize. The concurrent wrapper
  /// compares it to decide when to republish its read snapshot.
  [[nodiscard]] u64 structure_version() const { return structure_version_; }

  // What the concurrent wrapper (core/concurrent_map.hpp) needs for its
  // lock-free reads; the string map supplies its own.
  /// Immutable probing snapshot: the table's view, dual (migration
  /// target first, then the old table) while a resize runs. The wrapper
  /// takes one under its write lock whenever structure_version() moves;
  /// it stays dereferenceable, if stale, while retain_retired_regions
  /// keeps retired regions mapped.
  using ReadSnapshot = core::TableReadView<Cell>;
  [[nodiscard]] ReadSnapshot read_snapshot() const {
    return mig_table_ ? ReadSnapshot::dual(*mig_table_, table()) : ReadSnapshot::of(table());
  }
  /// A key as the probe takes it, prepared outside the epoch window.
  using ProbeKey = key_type;
  [[nodiscard]] static const key_type& probe_key(const key_type& key) { return key; }
  /// Algorithm 2 over a snapshot with acquire loads. Always conclusive:
  /// `out` holds the answer iff the caller's epoch validates.
  [[nodiscard]] static bool optimistic_probe(const ReadSnapshot& snap, const key_type& key,
                                             std::optional<u64>& out) {
    out = core::optimistic_find(snap, key);
    return true;
  }
  /// optimistic_probe for a batch, through the staged kernel
  /// (core::optimistic_find_batch): out[i] for keys[i]. Always
  /// conclusive, as optimistic_probe.
  [[nodiscard]] static bool optimistic_probe_batch(const ReadSnapshot& snap,
                                                   std::span<const key_type> keys,
                                                   std::span<std::optional<u64>> out) {
    core::optimistic_find_batch(snap, keys, out);
    return true;
  }

  /// Test hooks: verify the DRAM fingerprint tags / per-group CRCs of
  /// every live table (both of them mid-migration).
  [[nodiscard]] bool debug_verify_tags() const;
  [[nodiscard]] bool debug_verify_group_checksums() const;

  /// True while an expansion is owed but failing (see put()). Cleared by
  /// the insert whose retried expansion succeeds.
  [[nodiscard]] bool expand_pending() const { return expand_pending_; }
  [[nodiscard]] bool degraded() const { return expand_pending_; }
  [[nodiscard]] const std::string& last_expand_error() const { return last_expand_error_; }

  /// What open()-time verification found on a cleanly closed map (all
  /// zeros when recovery ran instead, or verification is disabled).
  [[nodiscard]] const hash::ScrubReport& open_scrub_report() const { return open_scrub_; }
  [[nodiscard]] bool corruption_detected_on_open() const { return !open_scrub_.clean(); }

  /// Seal the tables' recovery-derived count and checksum words, then
  /// mark the map clean and sync it. Called by the destructor; calling it
  /// explicitly makes shutdown errors observable.
  void close();

  /// Test hook: drop the mapping WITHOUT marking the map clean, exactly
  /// as a crash would. A file-backed map abandoned this way reopens
  /// through the recovery path (mmap writes are in the page cache, so the
  /// file holds everything stored before the "crash").
  void abandon();

  /// Stale resize targets that open() reclaimed before trusting the map
  /// file: a `.migrate` target whose cursor was never armed.
  [[nodiscard]] u64 orphans_reclaimed_on_open() const { return orphans_reclaimed_; }

  /// What the open()-time scan of the `.flight` sidecar found: the ops
  /// that were in flight when the previous process died, torn-record
  /// counts, etc. Empty (valid_header = false) for a fresh map, with the
  /// recorder off, or under GH_OBS_OFF. The sidecar is consumed by
  /// open() — the scan is this run's only copy.
  [[nodiscard]] const obs::FlightScan& flight_scan_on_open() const { return flight_scan_; }

  /// The recovery report of the open()-time recovery pass (all zeros when
  /// the map was closed cleanly). `in_flight_ops` carries the flight
  /// recorder's forensics.
  [[nodiscard]] const hash::RecoveryReport& open_recovery_report() const {
    return open_recovery_;
  }

 private:
  // The string map is this core over ArenaPayload plus its record codec
  // and put window; it drives the core's placement and resize steps.
  friend class PersistentStringMap;
  struct Superblock;
  /// What a resize migrates into: a double-size table (a placement
  /// failed) or a same-size one with a fresh arena (the arena filled).
  enum class Resize : u8 { kGrow, kCompact };
  /// Every resize of an arena map rebuilds its arena, so it is timed
  /// and counted as a compaction; an inline map's resize is an expand.
  static constexpr obs::OpKind kResizeOp =
      Payload::kInline ? obs::OpKind::kExpand : obs::OpKind::kCompact;

  BasicGroupHashMap() = default;

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  Superblock* superblock();
  void mark_state(u64 state);
  /// Make room, degrading gracefully (see with_backoff). Finishes the
  /// running migration, if any, so the caller retries against the
  /// finished table; otherwise starts a migration of kind `kind` and
  /// drains up to migrate_groups_per_op groups of it. `need` is the
  /// payload bytes of the record that did not fit. False while a resize
  /// step fails.
  bool try_expand(Resize kind = Resize::kGrow, u64 need = 0);
  /// True (and one failure absorbed) while a failed resize step's backoff
  /// window is open.
  bool backing_off();
  /// Run one resize step; a failure other than SimulatedCrash records the
  /// pending-expand state, journals it, arms the capped backoff and
  /// returns false instead of throwing.
  template <class Fn>
  bool with_backoff(obs::OpKind kind, Fn&& step);
  /// One map file: its region, the table in it and its payload.
  struct File {
    nvm::NvmRegion region;
    Table table;
    Payload payload;
  };
  /// Create and format an empty table of `total_cells` cells (after
  /// `payload_bytes` of payload) behind a dirty, disarmed superblock: the
  /// file `path_ + suffix`, or anonymous memory for an in-memory map.
  /// Builds new maps and resize targets.
  File format_table(const char* suffix, u64 total_cells, u64 group_size, u64 seed, bool crc,
                    usize payload_bytes);
  /// Validate the superblock of a mapped map file (`what` names it in
  /// errors) and attach its table and payload.
  File attach_file(nvm::NvmRegion region, const std::string& what);
  /// The upsert core of put/put_batch/increment (each caller holds its
  /// own OpScope): place() and make_room() until every key is placed.
  void upsert_keys(std::span<const key_type> keys, std::span<const u64> values, bool batch);
  /// One placement pass. During a migration each key is routed by the
  /// cursor, so no key is in both tables and every undrained group's
  /// copy still fits in the target (see the body, DESIGN.md "Resize").
  /// Returns the length of the applied prefix. `batch` selects the
  /// tables' counted *_batch entry points over their scalar ones; both
  /// run the same window code.
  usize place(std::span<const key_type> keys, std::span<const u64> values, bool batch);
  /// After a short place(): resize (see try_expand) or throw — the map is
  /// full with auto_expand off, or degraded while the resize fails.
  void make_room(Resize kind, u64 need = 0);
  /// The erase core of erase/erase_batch: old table first, then the
  /// migration target.
  void erase_keys(std::span<const key_type> keys, std::span<u8> hits, bool batch);

  // --- Resize state machine (see DESIGN.md, "Resize") ---
  /// Create + durably publish the `.migrate` target and arm the cursor.
  void start_migration(Resize kind, u64 need);
  /// Rehash one source group straight into the target in one pass
  /// (Table::copy_group) — each payload adopted by the target file
  /// first — and clear it from the old table with stores only (the
  /// cursor advance after it retires the group). Once the target can
  /// hold a key the old table also holds (mig_probe_), the copy skips
  /// it, so re-running a group after a crash or a short copy is safe.
  /// Throws std::runtime_error when the target refuses a key, which only
  /// a quarantined target group can do.
  void migrate_one_group(u64 g);
  /// Drain up to max_groups groups, advancing the durable cursor after
  /// each, and finalize when the cursor reaches the end. A failing step
  /// stops the drain through with_backoff.
  u64 do_migrate(u64 max_groups);
  /// Help-along hook every mutating op calls while a migration runs.
  void help_migrate();
  /// Publish the fully drained target over `path_` (rename + dir fsync)
  /// and retire the old region.
  void finalize_migration();
  /// open()-time continuation of an interrupted migration: attach the
  /// `.migrate` target named by the durable cursor — recovered if dirty,
  /// verified like the old table if clean — then keep draining.
  void resume_migration();
  /// 8-byte atomic advance of the self-checksummed cursor word in the
  /// old superblock, persisted and (file-backed) msync'd.
  void set_migration_word(u64 word);
  void clear_migration_state();
  void report_loss(const hash::LostCell& cell);
  /// open()-time: clear the old table's groups [0, cursor) again, since
  /// their store-only clears may not have reached media. Keeps the count.
  void clear_drained_groups(u64 cursor);
  /// Verify every group checksum of `t` into open_scrub_ (clean opens).
  void verify_at_open(Table& t);
  /// Create (payload_bytes of payload) or open the map at path_.
  void init(bool fresh, usize payload_bytes = 0);
  /// create()/open() bodies, shared with the string map.
  void create_at(const std::string& path, const MapOptions& options, usize payload_bytes);
  void open_at(const std::string& path, const MapOptions& options);
  /// Open/format the `.flight` sidecar and stand up the recorder. Called
  /// by init() BEFORE recovery so the crash forensics of the
  /// previous run are available to the recovery report. Never throws for
  /// sidecar-content reasons: a corrupt sidecar is reformatted.
  void init_flight(const MapOptions& options, bool fresh);

  /// Journal a step of the long-lived kMigrate flight op, whose token
  /// spans the whole resize rather than one OpScope; the record
  /// names the migration phase and the current cursor. No-op while the
  /// recorder is off.
  void journal_migration(obs::FlightPhase edge, obs::MigrationPhase phase);
  void flight_event(obs::FlightEvent e, obs::OpKind kind) {
    if (flight_) flight_->event(e, kind);
  }
  static u64 trace_key(const key_type& key) {
    if constexpr (std::is_same_v<key_type, u64>) {
      return key;
    } else {
      return key.lo;
    }
  }

  std::string path_;
  MapOptions options_;
  nvm::NvmRegion region_;
  std::vector<nvm::NvmRegion> retired_regions_;
  // Heap-allocated so the table's pointer to it stays valid across moves.
  std::unique_ptr<nvm::DirectPM> pm_;
  std::optional<Table> table_;
  [[no_unique_address]] Payload payload_;
  // Heap-allocated like pm_: sinks_ holds its address across moves.
  std::unique_ptr<obs::OpRecorder> recorder_;
  // Phase attribution + atomic migration-gauge mirrors: the fields a
  // live reader (gh_serve's stats thread) may poll while the owning
  // worker mutates the map. Heap-held so the map stays movable.
  std::unique_ptr<obs::LiveObs> live_obs_;
  // What every OpScope of this map feeds: recorder_, live_obs_->phases
  // and flight_, plus the one sampling gate.
  obs::OpSinks sinks_;
  // Flight recorder sidecar: its own PM (so black-box traffic never
  // pollutes the map's write-efficiency counters) over its own region.
  std::unique_ptr<nvm::DirectPM> flight_pm_;
  nvm::NvmRegion flight_region_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::FlightScan flight_scan_;
  hash::RecoveryReport open_recovery_;
  hash::ScrubReport open_scrub_;
  std::string last_expand_error_;
  // Resize state: the migration target table over its own region,
  // plus the in-memory copy of the durable cursor. mig_table_ engaged ==
  // migration active.
  nvm::NvmRegion mig_region_;
  std::optional<Table> mig_table_;
  [[no_unique_address]] Payload mig_payload_;
  u64 mig_cursor_ = 0;
  u64 mig_total_groups_ = 0;
  u64 mig_flight_token_ = 0;
  u64 mig_marked_cursor_ = 0;  ///< last cursor journaled to the flight ring
  /// The target can hold keys the old table still holds — the migration
  /// was resumed from an image, or a copy came up short — so the copy
  /// probes for them.
  bool mig_probe_ = false;
  /// Target arena bytes new records may still take during a migration:
  /// the rest is kept for the old table's records, which the copies move.
  u64 mig_put_room_ = 0;
  u64 structure_version_ = 0;
  u64 expansions_ = 0;  ///< completed resizes (finalized migrations)
  u64 expand_failures_ = 0;  ///< expansion attempts that failed (e.g. ENOSPC)
  u64 recoveries_ = 0;
  u64 migrations_started_ = 0;
  u64 migrations_completed_ = 0;
  u64 migrations_resumed_ = 0;
  u64 help_steps_ = 0;     ///< groups drained by help-along writers
  u64 bg_steps_ = 0;       ///< groups drained by explicit migrate_step()
  u64 keys_migrated_ = 0;
  u64 scrub_cursor_ = 0;
  u64 expand_backoff_ = 0;   ///< current backoff window (placement-failure events)
  u64 expand_cooldown_ = 0;  ///< failures to absorb before the next retry
  u64 orphans_reclaimed_ = 0;
  bool expand_pending_ = false;
  bool recovered_on_open_ = false;
  bool closed_ = false;
};

/// 63-bit integer keys in 16-byte cells (the paper's RandomNum /
/// Bag-of-Words item shape).
using GroupHashMap = BasicGroupHashMap<hash::Cell16>;

/// 128-bit keys in 32-byte cells (the paper's Fingerprint item shape).
using GroupHashMapWide = BasicGroupHashMap<hash::Cell32>;

}  // namespace gh
