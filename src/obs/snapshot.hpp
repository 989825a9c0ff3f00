// obs::Snapshot — the ONE read API for map/table statistics.
//
// Before this layer the repo had three disjoint introspection surfaces:
// nvm::PersistStats (NVM traffic), hash::TableStats + ScrubReport
// (algorithmic work and integrity), and the concurrent wrappers'
// LockContention counters via inspect_shards(). A caller answering "p99
// insert latency, lines flushed per op, seqlock retry rate, scrub
// progress" had to stitch all three together while the map ran.
//
// Snapshot collapses them: every map/table exposes `snapshot()`
// returning this struct — persist, table-op, scrub, contention,
// lifecycle and latency-histogram data in one sampled, plain-u64 (never
// torn, safe to copy around) value. It is the only stats getter.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "hash/table_stats.hpp"
#include "nvm/persist.hpp"
#include "obs/metrics.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh::obs {

/// Sampled copy of nvm::PersistStats (plain u64s).
struct PersistSnapshot {
  u64 stores = 0;
  u64 bytes_written = 0;
  u64 atomic_stores = 0;
  u64 persist_calls = 0;
  u64 lines_flushed = 0;
  u64 fences = 0;
  u64 delay_ns = 0;

  static PersistSnapshot from(const nvm::PersistStats& s) {
    return {s.stores.load(),        s.bytes_written.load(), s.atomic_stores.load(),
            s.persist_calls.load(), s.lines_flushed.load(), s.fences.load(),
            s.delay_ns.load()};
  }

  PersistSnapshot& operator+=(const PersistSnapshot& o) {
    stores += o.stores;
    bytes_written += o.bytes_written;
    atomic_stores += o.atomic_stores;
    persist_calls += o.persist_calls;
    lines_flushed += o.lines_flushed;
    fences += o.fences;
    delay_ns += o.delay_ns;
    return *this;
  }
};

/// Sampled copy of hash::TableStats (plain u64s).
struct TableOpSnapshot {
  u64 inserts = 0;
  u64 insert_failures = 0;
  u64 queries = 0;
  u64 query_hits = 0;
  u64 erases = 0;
  u64 erase_hits = 0;
  u64 probes = 0;
  u64 level2_probes = 0;
  u64 displacements = 0;
  u64 stash_probes = 0;
  u64 backward_shifts = 0;
  u64 tag_probes = 0;
  u64 tag_skips = 0;
  u64 tag_false_positives = 0;
  u64 batch_ops = 0;
  u64 batch_keys = 0;
  u64 prefetches_issued = 0;

  static TableOpSnapshot from(const hash::TableStats& s) {
    return {s.inserts.load(),       s.insert_failures.load(), s.queries.load(),
            s.query_hits.load(),    s.erases.load(),          s.erase_hits.load(),
            s.probes.load(),        s.level2_probes.load(),   s.displacements.load(),
            s.stash_probes.load(),  s.backward_shifts.load(), s.tag_probes.load(),
            s.tag_skips.load(),     s.tag_false_positives.load(), s.batch_ops.load(),
            s.batch_keys.load(),    s.prefetches_issued.load()};
  }

  TableOpSnapshot& operator+=(const TableOpSnapshot& o) {
    inserts += o.inserts;
    insert_failures += o.insert_failures;
    queries += o.queries;
    query_hits += o.query_hits;
    erases += o.erases;
    erase_hits += o.erase_hits;
    probes += o.probes;
    level2_probes += o.level2_probes;
    displacements += o.displacements;
    stash_probes += o.stash_probes;
    backward_shifts += o.backward_shifts;
    tag_probes += o.tag_probes;
    tag_skips += o.tag_skips;
    tag_false_positives += o.tag_false_positives;
    batch_ops += o.batch_ops;
    batch_keys += o.batch_keys;
    prefetches_issued += o.prefetches_issued;
    return *this;
  }
};

/// Integrity view: lifetime scrub/quarantine counters (from TableStats)
/// plus what open()-time verification found.
struct ScrubSnapshot {
  u64 groups_scrubbed = 0;
  u64 cells_scrubbed = 0;
  u64 crc_mismatches = 0;
  u64 groups_quarantined = 0;
  u64 cells_lost = 0;
  u64 media_errors = 0;
  // open()-time verification of a cleanly closed map (zero after a
  // recovery open or when verification is off).
  u64 open_groups_checked = 0;
  u64 open_crc_mismatches = 0;
  u64 open_cells_lost = 0;

  static ScrubSnapshot from(const hash::TableStats& s, const hash::ScrubReport& open) {
    ScrubSnapshot r;
    r.groups_scrubbed = s.groups_scrubbed.load();
    r.cells_scrubbed = s.cells_scrubbed.load();
    r.crc_mismatches = s.crc_mismatches.load();
    r.groups_quarantined = s.groups_quarantined.load();
    r.cells_lost = s.cells_lost.load();
    r.media_errors = s.media_errors.load();
    r.open_groups_checked = open.groups_checked;
    r.open_crc_mismatches = open.crc_mismatches;
    r.open_cells_lost = open.cells_lost;
    return r;
  }

  ScrubSnapshot& operator+=(const ScrubSnapshot& o) {
    groups_scrubbed += o.groups_scrubbed;
    cells_scrubbed += o.cells_scrubbed;
    crc_mismatches += o.crc_mismatches;
    groups_quarantined += o.groups_quarantined;
    cells_lost += o.cells_lost;
    media_errors += o.media_errors;
    open_groups_checked += o.open_groups_checked;
    open_crc_mismatches += o.open_crc_mismatches;
    open_cells_lost += o.open_cells_lost;
    return *this;
  }
};

/// Sampled seqlock contention (from util/seqlock.hpp LockContention).
struct ContentionSnapshot {
  u64 read_retries = 0;
  u64 read_fallbacks = 0;
  u64 writer_waits = 0;

  static ContentionSnapshot from(const LockContention& c) {
    return {c.read_retries(), c.read_fallbacks(), c.writer_waits.load()};
  }

  ContentionSnapshot& operator+=(const ContentionSnapshot& o) {
    read_retries += o.read_retries;
    read_fallbacks += o.read_fallbacks;
    writer_waits += o.writer_waits;
    return *this;
  }
};

/// Map lifecycle events (expansion/compaction/recovery machinery).
struct LifecycleSnapshot {
  u64 expansions = 0;
  u64 expand_failures = 0;
  u64 compactions = 0;
  u64 compact_failures = 0;
  u64 recoveries = 0;
  u64 orphans_reclaimed = 0;
  bool degraded = false;  ///< an expansion/compaction is owed but failing
  // Pending-expand backoff state (PR 3's try_expand). Gauges, not
  // counters: `expand_backoff` is the current cap (doubles per failure,
  // 1..64) and `expand_cooldown` the ops left before the next retry —
  // both 0 when no expansion is owed. Under absorb() they take the max
  // across shards: "how badly is the worst shard backing off".
  u64 expand_backoff = 0;
  u64 expand_cooldown = 0;

  LifecycleSnapshot& operator+=(const LifecycleSnapshot& o) {
    expansions += o.expansions;
    expand_failures += o.expand_failures;
    compactions += o.compactions;
    compact_failures += o.compact_failures;
    recoveries += o.recoveries;
    orphans_reclaimed += o.orphans_reclaimed;
    degraded = degraded || o.degraded;
    expand_backoff = expand_backoff > o.expand_backoff ? expand_backoff : o.expand_backoff;
    expand_cooldown = expand_cooldown > o.expand_cooldown ? expand_cooldown : o.expand_cooldown;
    return *this;
  }
};

/// Online-resize migration state and counters. `active`/`cursor`/
/// `total_groups` describe the in-progress migration (zero when none);
/// the rest are lifetime counters.
struct MigrationSnapshot {
  u64 active = 0;        ///< migrations in progress (0/1 per map; summed)
  u64 cursor = 0;        ///< next source group to migrate (active maps)
  u64 total_groups = 0;  ///< source groups in the active migration
  u64 groups_migrated = 0;
  u64 keys_migrated = 0;
  u64 started = 0;
  u64 completed = 0;
  u64 resumed = 0;     ///< migrations picked up from a durable cursor on open
  u64 help_steps = 0;  ///< groups drained by writers (help-along and finishing drains)
  u64 bg_steps = 0;    ///< background drain steps (service worker idle loop)

  MigrationSnapshot& operator+=(const MigrationSnapshot& o) {
    active += o.active;
    cursor += o.cursor;
    total_groups += o.total_groups;
    groups_migrated += o.groups_migrated;
    keys_migrated += o.keys_migrated;
    started += o.started;
    completed += o.completed;
    resumed += o.resumed;
    help_steps += o.help_steps;
    bg_steps += o.bg_steps;
    return *this;
  }
};

/// Per-op latency histograms, sampled.
struct OpLatencySnapshot {
  HistogramSnapshot insert;
  HistogramSnapshot find;
  HistogramSnapshot erase;
  HistogramSnapshot expand;
  HistogramSnapshot scrub;
  HistogramSnapshot recover;
  HistogramSnapshot compact;
  HistogramSnapshot migrate;

  static OpLatencySnapshot from(const OpRecorder& rec) {
    OpLatencySnapshot s;
    s.insert = rec.of(OpKind::kInsert).snapshot();
    s.find = rec.of(OpKind::kFind).snapshot();
    s.erase = rec.of(OpKind::kErase).snapshot();
    s.expand = rec.of(OpKind::kExpand).snapshot();
    s.scrub = rec.of(OpKind::kScrub).snapshot();
    s.recover = rec.of(OpKind::kRecover).snapshot();
    s.compact = rec.of(OpKind::kCompact).snapshot();
    s.migrate = rec.of(OpKind::kMigrate).snapshot();
    return s;
  }

  [[nodiscard]] const HistogramSnapshot& of(OpKind kind) const {
    switch (kind) {
      case OpKind::kInsert: return insert;
      case OpKind::kFind: return find;
      case OpKind::kErase: return erase;
      case OpKind::kExpand: return expand;
      case OpKind::kScrub: return scrub;
      case OpKind::kRecover: return recover;
      case OpKind::kCompact: return compact;
      case OpKind::kMigrate: return migrate;
    }
    return insert;
  }

  /// Fold another structure's sampled histograms into this one. Because
  /// HistogramSnapshot carries its sparse bucket distribution, the
  /// merged percentiles equal those of the union of samples.
  void merge(const OpLatencySnapshot& o) {
    insert.merge(o.insert);
    find.merge(o.find);
    erase.merge(o.erase);
    expand.merge(o.expand);
    scrub.merge(o.scrub);
    recover.merge(o.recover);
    compact.merge(o.compact);
    migrate.merge(o.migrate);
  }
};

/// Per-phase latency attribution (obs/span.hpp PhaseAccum, converted to
/// the ns domain). One row per OpKind; for every sampled op
///   phase_ns[kProbe] + [kPersist] + [kFence] + [kMigrateHelp] == op_ns
/// exactly (probe is the residual), and the service layer adds ring
/// wait to both phase_ns[kRingWait] and op_ns, so phase shares
/// (phase_ns / op_ns) always partition the attributed time. All fields
/// are counters: absorb() sums them, so shards merge like the latency
/// histograms (merge == union) and double-absorbing scales every row
/// uniformly without changing any share.
struct PhaseSnapshot {
  struct Row {
    u64 samples = 0;  ///< map-level sampled ops contributing
    u64 op_ns = 0;    ///< total attributed time
    std::array<u64, kPhases> phase_ns{};

    Row& operator+=(const Row& o) {
      samples += o.samples;
      op_ns += o.op_ns;
      for (usize p = 0; p < kPhases; ++p) phase_ns[p] += o.phase_ns[p];
      return *this;
    }
  };

  std::array<Row, kOpKinds> rows{};

  [[nodiscard]] const Row& of(OpKind kind) const { return rows[static_cast<usize>(kind)]; }

  /// Share of kind's attributed time spent in phase (0 when unsampled).
  [[nodiscard]] double share(OpKind kind, Phase phase) const {
    const Row& r = of(kind);
    if (r.op_ns == 0) return 0;
    return static_cast<double>(r.phase_ns[static_cast<usize>(phase)]) /
           static_cast<double>(r.op_ns);
  }

  [[nodiscard]] u64 total_op_ns() const {
    u64 t = 0;
    for (const Row& r : rows) t += r.op_ns;
    return t;
  }

  PhaseSnapshot& operator+=(const PhaseSnapshot& o) {
    for (usize k = 0; k < kOpKinds; ++k) rows[k] += o.rows[k];
    return *this;
  }
};

/// Last-window gauges from the time-series aggregator
/// (obs/timeseries.hpp). These are GAUGES, not counters: only the
/// top-level aggregator that owns the TimeSeries fills them in, and
/// absorb() merges by max, so absorbing the same shard snapshot twice
/// (or absorbing shard snapshots that never saw a ticker) cannot
/// double-count them.
struct TimeseriesGauges {
  u64 windows = 0;        ///< windows currently buffered
  u64 interval_ms = 0;    ///< nominal tick interval
  u64 last_window_ms = 0; ///< caller-clock end of the newest window
  double last_qps = 0;
  double last_p99_ns = 0;

  TimeseriesGauges& operator+=(const TimeseriesGauges& o) {
    windows = windows > o.windows ? windows : o.windows;
    interval_ms = interval_ms > o.interval_ms ? interval_ms : o.interval_ms;
    last_window_ms = last_window_ms > o.last_window_ms ? last_window_ms : o.last_window_ms;
    last_qps = last_qps > o.last_qps ? last_qps : o.last_qps;
    last_p99_ns = last_p99_ns > o.last_p99_ns ? last_p99_ns : o.last_p99_ns;
    return *this;
  }
};

/// One op the flight recorder shows as in flight at the last crash
/// (reconstructed by the reopen-time sidecar scan).
struct FlightOpBrief {
  OpKind kind = OpKind::kInsert;
  FlightPhase phase = FlightPhase::kStart;
  u64 seqno = 0;
  u64 key_hash = 0;
};

/// Flight-recorder forensics (obs/flight_recorder.hpp): what the
/// reopen-time scan of the `.flight` sidecar found. All zero when the
/// recorder is off (FlightMode::kOff or GH_OBS_OFF) or the map was
/// created fresh.
struct FlightSnapshot {
  bool enabled = false;       ///< a recorder is live on this structure
  u64 records_scanned = 0;    ///< valid records found by the open() scan
  u64 records_torn = 0;       ///< protocol violations (must stay 0)
  std::vector<FlightOpBrief> in_flight_on_open;

  FlightSnapshot& operator+=(const FlightSnapshot& o) {
    enabled = enabled || o.enabled;
    records_scanned += o.records_scanned;
    records_torn += o.records_torn;
    in_flight_on_open.insert(in_flight_on_open.end(), o.in_flight_on_open.begin(),
                             o.in_flight_on_open.end());
    return *this;
  }
};

/// One shard of a concurrent map, in brief (the aggregate fields of the
/// owning Snapshot already sum these).
struct ShardBrief {
  usize shard = 0;
  u64 size = 0;
  u64 capacity = 0;
  ContentionSnapshot contention;
  u64 expansions = 0;
  bool degraded = false;
};

/// The unified stats view. All fields are plain sampled values — safe to
/// copy, serialize (obs/export.hpp) or diff between two points in time.
struct Snapshot {
  u32 version = kSchemaVersion;
  std::string source;  ///< "GroupHashMap", "ConcurrentStringMap", table name…
  u64 size = 0;
  u64 capacity = 0;
  double load_factor = 0;
  usize shards = 0;  ///< 0 for non-sharded structures

  PersistSnapshot persist;
  TableOpSnapshot table;
  ScrubSnapshot scrub;
  ContentionSnapshot contention;
  LifecycleSnapshot lifecycle;
  MigrationSnapshot migration;
  OpLatencySnapshot latency;
  PhaseSnapshot phases;
  TimeseriesGauges timeseries;
  FlightSnapshot flight;

  std::vector<ShardBrief> per_shard;  ///< concurrent wrappers only

  /// Merge another structure's sample into this one (used by the
  /// concurrent wrappers to aggregate shards). Latency histograms merge
  /// their sparse bucket distributions, so the aggregate's percentiles
  /// equal those of a single histogram holding the union of samples.
  Snapshot& absorb(const Snapshot& o) {
    size += o.size;
    capacity += o.capacity;
    load_factor = capacity ? static_cast<double>(size) / static_cast<double>(capacity) : 0;
    persist += o.persist;
    table += o.table;
    scrub += o.scrub;
    contention += o.contention;
    lifecycle += o.lifecycle;
    migration += o.migration;
    latency.merge(o.latency);
    phases += o.phases;      // counters: sums, shares invariant
    timeseries += o.timeseries;  // gauges: max-merge, idempotent
    flight += o.flight;
    return *this;
  }
};

}  // namespace gh::obs
