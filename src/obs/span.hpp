// Sampled request-scoped tracing and per-phase latency attribution.
//
// Three cooperating pieces, all DRAM-only (the crash-surviving sibling
// is the flight recorder):
//
//  * Span rings — per-thread fixed-capacity rings of 40-byte
//    SpanRecords. A traced request grows a tree: a root `request` span
//    on the client thread, a `ring_wait` span per MPSC work item
//    (enqueue → worker pop), a `shard_visit` span on the worker, one
//    span per map op inside the visit, and synthetic phase children
//    (probe/persist/fence/migrate_help) that partition each op span
//    exactly. Rings overwrite oldest; a drain (SpanCollector) copies
//    and clears every registered ring. Export is Chrome trace_event
//    JSON, mergeable with the flight recorder's timeline in gh_stats.
//
//  * Phase attribution — every latency-sampled op also runs a
//    thread-local phase collection: DirectPM::flush/fence bracket
//    themselves into persist/fence ticks, the resize help-along
//    brackets itself into migrate_help, and probe is the residual, so
//    per sample  probe + persist + fence + migrate_help == op time.
//    The service layer adds ring-wait on top (to both the ring_wait
//    bucket and the attributed total, preserving the invariant).
//    Sums land in a PhaseAccum (relaxed atomics) and surface as the
//    `phases` section of obs::Snapshot.
//
//  * Trace context — a thread-local {trace id, parent span, sampled}
//    the service stamps around a shard visit so the map ops' OpScopes
//    know to emit spans. Sampling is per batch at ingest
//    (TraceMode::kSampled admits 1 in 2^shift); kFull traces every
//    batch and is the expensive leg of bench/observability_overhead.
//
// Under GH_OBS_OFF every hook here constant-folds to nothing: no ring
// is ever registered, no span emitted, no phase tick recorded. Only
// the offline surfaces (span file reader, trace-event rendering) stay
// live so gh_stats can inspect files from an obs-enabled build.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/types.hpp"

namespace gh::obs {

// ---------------------------------------------------------------------------
// Trace context & sampling.

/// Request-tracing mode (service-level; per batch at ingest).
enum class TraceMode : u8 {
  kOff = 0,
  kSampled = 1,  ///< 1 in 2^kTraceSampleShift batches
  kFull = 2,     ///< every batch
};

const char* trace_mode_name(TraceMode m);

/// Parse "off" / "sampled" / "full" (anything else → kOff).
TraceMode trace_mode_from(std::string_view name);

/// kSampled admission rate: 1 in 2^6 = 64 batches.
inline constexpr u32 kTraceSampleShift = 6;

// ---------------------------------------------------------------------------
// Span records.

/// What a span measures. Op spans mirror OpKind; phase spans are the
/// synthetic children that partition an op span.
enum class SpanKind : u8 {
  kRequest = 0,     ///< client-side batch: ingest → responses complete
  kRingWait = 1,    ///< one work item: enqueue → worker pop
  kShardVisit = 2,  ///< worker: one drained visit of a shard
  kOpInsert = 3,
  kOpFind = 4,
  kOpErase = 5,
  kOpMigrate = 6,
  kOpOther = 7,       ///< expand/scrub/recover/compact inside a trace
  kPhaseProbe = 8,    ///< residual: hashing, tag probes, cell compares
  kPhasePersist = 9,  ///< inside PM flush
  kPhaseFence = 10,   ///< inside PM fence
  kPhaseMigrateHelp = 11,
  kWake = 12,  ///< client: last shard completion → waiter resumed
};
inline constexpr usize kSpanKinds = 13;

const char* span_kind_name(SpanKind kind);

/// The op span kind for a map OpKind.
SpanKind span_kind_for_op(OpKind kind);

/// One completed span. Times are raw TSC ticks (same domain as the
/// flight recorder) so the two sources merge on one axis.
struct SpanRecord {
  u64 trace_id = 0;
  u64 t_start = 0;  ///< ticks
  u64 t_end = 0;    ///< ticks
  u32 span_id = 0;
  u32 parent_id = 0;  ///< 0 = root
  u32 tid = 0;        ///< small per-process thread index
  u8 kind = 0;        ///< SpanKind
  u8 shard = 0;
  u16 pad = 0;
};
static_assert(sizeof(SpanRecord) == 40);

/// Fixed-capacity overwrite-oldest ring of completed spans. One per
/// emitting thread; a mutex serializes emit vs. drain (uncontended in
/// steady state — drains are rare and emits are sampled).
class SpanRing {
 public:
  explicit SpanRing(u32 capacity);

  void emit(const SpanRecord& r);

  /// Copy out everything currently buffered (oldest first) and clear.
  void drain(std::vector<SpanRecord>& out);

  [[nodiscard]] u64 dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::vector<SpanRecord> buf_;
  u32 head_ = 0;   ///< next write position
  u32 count_ = 0;  ///< live records (≤ capacity)
  std::atomic<u64> dropped_{0};
};

/// Process-global registry of per-thread span rings plus the id
/// allocators. Rings are shared_ptr-owned by the registry so spans
/// emitted by a thread that has since exited still drain.
class SpanCollector {
 public:
  static SpanCollector& global();

  /// The calling thread's ring (registered on first use).
  SpanRing& ring_for_this_thread();

  /// Drain every registered ring; records are in no particular order.
  std::vector<SpanRecord> drain_all();

  /// Total spans overwritten before being drained, across all rings.
  [[nodiscard]] u64 dropped() const;

  /// True once any thread has registered a ring (OBS_OFF lane asserts
  /// this stays false).
  [[nodiscard]] bool any_ring() const;

  /// Never returns 0 (the counter starts at 1; 0 means "untraced").
  u64 next_trace_id() { return trace_ids_.fetch_add(1, std::memory_order_relaxed); }
  u32 next_span_id() { return span_ids_.fetch_add(1, std::memory_order_relaxed); }

  /// Ring capacity for newly registered threads (set before traffic).
  void set_ring_capacity(u32 capacity);

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SpanRing>> rings_;
  std::atomic<u64> trace_ids_{1};
  std::atomic<u32> span_ids_{1};
  std::atomic<u32> ring_capacity_{4096};
  std::atomic<bool> any_ring_{false};
};

/// Allocate an id and emit a completed span in one step. No-op
/// (returns 0) under GH_OBS_OFF.
u32 emit_span(SpanKind kind, u64 trace_id, u32 parent, u64 t_start, u64 t_end,
              u8 shard = 0);

/// Emit a completed span under a pre-allocated id (for spans whose id
/// children needed before the span itself ended).
void emit_span_with_id(SpanKind kind, u64 trace_id, u32 span_id, u32 parent,
                       u64 t_start, u64 t_end, u8 shard = 0);

// ---------------------------------------------------------------------------
// Thread-local trace context + phase scratch.

struct ThreadTrace {
  u64 trace_id = 0;
  u32 parent = 0;
  bool sampled = false;
};

struct ThreadPhase {
  u64 owner_t0 = 0;  ///< start tick of the op that owns collection
  u64 persist = 0;   ///< ticks inside PM flush
  u64 fence = 0;     ///< ticks inside PM fence
  u64 help = 0;      ///< ticks inside the resize help-along
  bool collecting = false;
  bool in_help = false;  ///< persist/fence inside help fold into help
};

namespace detail {
inline thread_local ThreadTrace t_trace;
inline thread_local ThreadPhase t_phase;
}  // namespace detail

/// True when the current thread is inside a sampled trace (an OpScope
/// then times its op so it emits a span even if the latency gate would
/// not have admitted it).
inline bool thread_trace_sampled() {
  if constexpr (!kEnabled) return false;
  return detail::t_trace.sampled;
}

void set_thread_trace(u64 trace_id, u32 parent_span, bool sampled);
void clear_thread_trace();

/// Claim phase collection for the op that sampled t0, unless an
/// enclosing op (e.g. put → expand) already owns it. Returns whether
/// this op claimed it.
inline bool phase_collect_begin(u64 t0) {
  if constexpr (!kEnabled) return false;
  ThreadPhase& tp = detail::t_phase;
  if (tp.collecting) return false;
  tp.owner_t0 = t0;
  tp.persist = 0;
  tp.fence = 0;
  tp.help = 0;
  tp.in_help = false;
  tp.collecting = true;
  return true;
}

/// Release a claimed collection without recording it (the owning op
/// unwound by an exception).
inline void phase_collect_abort() {
  if constexpr (!kEnabled) return;
  detail::t_phase.collecting = false;
}

// ---------------------------------------------------------------------------
// Phase accumulator (hot; relaxed atomics, tick domain).

class PhaseAccum {
 public:
  struct Row {
    std::atomic<u64> samples{0};
    std::atomic<u64> op_ticks{0};
    std::array<std::atomic<u64>, kPhases> ticks{};
  };

  void add(OpKind kind, u64 op_ticks, const u64 (&phase_ticks)[kPhases]) {
    if constexpr (!kEnabled) return;
    Row& r = rows_[static_cast<usize>(kind)];
    r.samples.fetch_add(1, std::memory_order_relaxed);
    r.op_ticks.fetch_add(op_ticks, std::memory_order_relaxed);
    for (usize p = 0; p < kPhases; ++p) {
      if (phase_ticks[p] != 0) r.ticks[p].fetch_add(phase_ticks[p], std::memory_order_relaxed);
    }
  }

  /// Service-side attribution (ring wait): adds to both the phase
  /// bucket and the attributed total so phases still sum to op time.
  void add_wait(OpKind kind, Phase phase, u64 ticks) {
    if constexpr (!kEnabled) return;
    if (ticks == 0) return;
    Row& r = rows_[static_cast<usize>(kind)];
    r.op_ticks.fetch_add(ticks, std::memory_order_relaxed);
    r.ticks[static_cast<usize>(phase)].fetch_add(ticks, std::memory_order_relaxed);
  }

  /// Tick → ns conversion happens here, once, at snapshot time.
  [[nodiscard]] PhaseSnapshot snapshot() const;

  void reset();

 private:
  std::array<Row, kOpKinds> rows_{};
};

/// Finish phase collection for the op that claimed t0: fold the
/// scratch ticks into `acc` (probe = residual) and, when the thread is
/// inside a sampled trace, emit the op span plus its phase children.
/// dt_ticks is the op's measured duration (now - t0 at its end).
void phase_collect_finish(PhaseAccum& acc, OpKind kind, u64 t0, u64 dt_ticks,
                          u8 shard = 0);

// ---------------------------------------------------------------------------
// RAII phase brackets (placed in DirectPM::flush/fence and the map's
// help-along). Zero-cost when the thread is not collecting.

class PhasePersistScope {
 public:
  PhasePersistScope() {
    if constexpr (!kEnabled) return;
    const ThreadPhase& tp = detail::t_phase;
    if (tp.collecting && !tp.in_help) t0_ = now_ticks();
  }
  ~PhasePersistScope() {
    if constexpr (!kEnabled) return;
    if (t0_ != 0) detail::t_phase.persist += now_ticks() - t0_;
  }
  PhasePersistScope(const PhasePersistScope&) = delete;
  PhasePersistScope& operator=(const PhasePersistScope&) = delete;

 private:
  u64 t0_ = 0;
};

class PhaseFenceScope {
 public:
  PhaseFenceScope() {
    if constexpr (!kEnabled) return;
    const ThreadPhase& tp = detail::t_phase;
    if (tp.collecting && !tp.in_help) t0_ = now_ticks();
  }
  ~PhaseFenceScope() {
    if constexpr (!kEnabled) return;
    if (t0_ != 0) detail::t_phase.fence += now_ticks() - t0_;
  }
  PhaseFenceScope(const PhaseFenceScope&) = delete;
  PhaseFenceScope& operator=(const PhaseFenceScope&) = delete;

 private:
  u64 t0_ = 0;
};

class PhaseHelpScope {
 public:
  PhaseHelpScope() {
    if constexpr (!kEnabled) return;
    ThreadPhase& tp = detail::t_phase;
    if (tp.collecting && !tp.in_help) {
      t0_ = now_ticks();
      tp.in_help = true;
    }
  }
  ~PhaseHelpScope() {
    if constexpr (!kEnabled) return;
    if (t0_ != 0) {
      ThreadPhase& tp = detail::t_phase;
      tp.help += now_ticks() - t0_;
      tp.in_help = false;
    }
  }
  PhaseHelpScope(const PhaseHelpScope&) = delete;
  PhaseHelpScope& operator=(const PhaseHelpScope&) = delete;

 private:
  u64 t0_ = 0;
};

// ---------------------------------------------------------------------------
// Live gauges — a heap-allocated per-map anchor for the things a
// running server can read without walking map internals (the map is
// single-owner; its plain fields race the worker). unique_ptr-held so
// the owning map stays movable.

struct MigrationGauges {
  u64 active = 0;
  u64 cursor = 0;
  u64 total_groups = 0;
};

class LiveObs {
 public:
  PhaseAccum phases;

  void set_migration(u64 active, u64 cursor, u64 total_groups) {
    if constexpr (!kEnabled) return;
    mig_active_.store(active, std::memory_order_relaxed);
    mig_cursor_.store(cursor, std::memory_order_relaxed);
    mig_total_.store(total_groups, std::memory_order_relaxed);
  }

  [[nodiscard]] MigrationGauges migration() const {
    MigrationGauges g;
    g.active = mig_active_.load(std::memory_order_relaxed);
    g.cursor = mig_cursor_.load(std::memory_order_relaxed);
    g.total_groups = mig_total_.load(std::memory_order_relaxed);
    return g;
  }

 private:
  std::atomic<u64> mig_active_{0};
  std::atomic<u64> mig_cursor_{0};
  std::atomic<u64> mig_total_{0};
};

// ---------------------------------------------------------------------------
// Chrome trace-event rendering (shared with the flight recorder so
// merged output sorts on one time axis — Chrome's viewer silently
// drops events whose ts regresses).

/// One pre-rendered trace event: its timestamp (for global sorting)
/// and the rest of the JSON object body (everything but "ts").
struct TraceEvent {
  double ts_us = 0;
  std::string body;  ///< e.g. `"name":"insert","ph":"X","dur":1.2,...`
};

/// Sort events by ts (stable) and render the traceEvents JSON document.
std::string render_trace_json(std::vector<TraceEvent> events);

/// Append span records as complete ("X") events. `base_ticks` is
/// subtracted before the tick → µs conversion.
void append_span_trace_events(const std::vector<SpanRecord>& spans,
                              double ticks_per_ns, u64 base_ticks,
                              std::vector<TraceEvent>& out);

// ---------------------------------------------------------------------------
// Span file I/O ("GHSPANS1" header; written by gh_serve --spans-out,
// merged by gh_stats --spans). Offline surface: stays live under
// GH_OBS_OFF.

inline constexpr u64 kSpanFileMagic = 0x31534e4150534847ull;  // "GHSPANS1"

struct SpanFile {
  bool valid = false;
  double ticks_per_ns = 1.0;
  u64 base_ticks = 0;
  std::vector<SpanRecord> spans;
};

bool write_spans_file(const std::string& path, const std::vector<SpanRecord>& spans,
                      double ticks_per_ns);
SpanFile read_spans_file(const std::string& path);

}  // namespace gh::obs
