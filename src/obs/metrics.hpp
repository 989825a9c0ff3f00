// Observability primitives — TSC timing, the sampling gate and
// log₂-bucketed latency histograms, plus the op-kind and phase enums
// every instrument shares.
//
// Design constraints (this is hot-path instrumentation):
//   * recording is wait-free and lock-prefix-free: histograms use relaxed
//     load-add-store (the RelaxedCounter discipline of util/counters.hpp)
//     — under true concurrency increments may be lost, but values are
//     always defined and never decrease;
//   * timestamps are raw TSC ticks (one rdtsc per edge, no serialization,
//     no syscall); ticks convert to nanoseconds only at snapshot/export
//     time via the calibrated clock in util/clock.hpp;
//   * state is per structure: each map owns its OpRecorder, and its
//     snapshot() (obs/snapshot.hpp) is the only way the numbers leave it,
//     so no cacheline is shared between structures;
//   * compiling with GH_OBS_OFF reduces every hook — record(),
//     now_ticks() — to a no-op with zero residue on the hot path. The
//     snapshot/export surface stays linkable (it reports zeros), so
//     callers never need #ifdefs.
#pragma once

#include <array>
#include <atomic>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace gh::obs {

#ifdef GH_OBS_OFF
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Schema version stamped into every exported snapshot.
inline constexpr u32 kSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Clock: raw TSC ticks on the hot path, ns conversion at snapshot time.

/// Raw monotonic tick counter (rdtsc on x86; steady clock ns elsewhere).
/// Always 0 when GH_OBS_OFF so the hook costs nothing.
u64 now_ticks_slow();

inline u64 now_ticks() {
  if constexpr (!kEnabled) return 0;
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return now_ticks_slow();
#endif
}

/// Ticks per nanosecond (1.0 when ticks already are ns). First call may
/// spend ~20 ms calibrating; cached afterwards. Never called on hot paths.
double ticks_per_ns();

/// Default latency-sampling shift: time 1 in 2^6 ops. Reading the TSC is
/// far from free — on virtualized hosts each rdtsc also acts as a
/// speculation barrier, serializing the probe loads it brackets (measured
/// ~300 ns per DRAM-speed op, dwarfing the op itself). Sampling keeps the
/// percentile estimates (latency is recorded for every 64th op, which is
/// unbiased for a steady workload) while amortizing that cost to ~2% of
/// one op. Set the shift to 0 (MapOptions/StringMapOptions
/// latency_sample_shift) to time every op; exact op COUNTS always come
/// from TableStats — histogram counts are sampled ops by design.
inline constexpr u32 kDefaultSampleShift = 6;

/// Per-structure admission gate for sampled timing. Deliberately plain
/// (non-atomic): each map is single-writer per the repo's thread model
/// (the concurrent wrappers serialize mutations per shard), and a rare
/// torn increment merely perturbs which op gets sampled.
class SampleGate {
 public:
  void set_shift(u32 shift) { mask_ = (u64{1} << (shift < 63 ? shift : 63)) - 1; }
  /// Advance the sequence; the returned ticket is this op's position in
  /// it, from which every sampling decision of the op is derived.
  u64 ticket() { return seq_++; }
  /// True when the ticket is one of the 1 in 2^shift that are timed.
  [[nodiscard]] bool admits(u64 ticket) const { return (ticket & mask_) == 0; }
  /// ticket() and admits() in one step.
  bool admit() { return admits(ticket()); }

 private:
  u64 seq_ = 0;
  u64 mask_ = (u64{1} << kDefaultSampleShift) - 1;
};

/// Convert a tick delta to nanoseconds (snapshot/export-time only).
inline u64 ticks_to_ns(u64 ticks) {
  const double tpn = ticks_per_ns();
  return tpn > 0 ? static_cast<u64>(static_cast<double>(ticks) / tpn) : ticks;
}

// ---------------------------------------------------------------------------
// Latency histogram.

/// Snapshot-time view of one histogram, in nanoseconds.
struct HistogramSnapshot {
  u64 count = 0;
  /// Sum of the samples in raw ticks. Sums add in ticks and convert once
  /// (sum_ns), so a merged snapshot's sum_ns equals the union's instead
  /// of losing up to 1 ns per part to a per-part floor.
  u64 sum_ticks = 0;
  u64 sum_ns = 0;
  u64 max_ns = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
  /// Sparse non-empty buckets as (tick-domain bucket index, count) pairs,
  /// ascending by index. Carrying the raw distribution is what lets
  /// merge() recompute exact percentiles for an aggregate: merged
  /// mean/p50/p95/p99/p999 equal those of one histogram holding the union of
  /// samples, not a lossy average of per-shard percentiles.
  std::vector<std::pair<u32, u64>> buckets;

  /// Fold `o` into this snapshot: counts/tick sums/max add, bucket lists
  /// merge, and the derived statistics are recomputed from the merged
  /// distribution.
  void merge(const HistogramSnapshot& o);
};

/// Log₂-bucketed latency histogram (64 power-of-two ranges × 8 linear
/// sub-buckets ⇒ ≤ ~6% relative error on percentiles). record() is a
/// handful of relaxed loads/stores on one 4 KB array; values are raw
/// ticks, converted to ns by snapshot().
class LatencyHistogram {
 public:
  static constexpr usize kSubBits = 3;
  static constexpr usize kSub = 1u << kSubBits;
  static constexpr usize kBuckets = (64 - kSubBits + 1) * kSub;

  /// Record `n` samples of `ticks` each: the content of n record(ticks)
  /// calls in one update.
  void record(u64 ticks, u64 n = 1) {
    if constexpr (!kEnabled) return;
    auto& b = buckets_[bucket_for(ticks)];
    b.store(b.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + ticks * n, std::memory_order_relaxed);
    u64 prev = max_.load(std::memory_order_relaxed);
    while (ticks > prev &&
           !max_.compare_exchange_weak(prev, ticks, std::memory_order_relaxed)) {
    }
  }

  void reset() {
    if constexpr (!kEnabled) return;
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Derived count (sum of buckets). Monotone across successive calls:
  /// each bucket only ever grows.
  [[nodiscard]] u64 count() const {
    u64 total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }

  /// Consistent point-in-time view with tick→ns conversion applied.
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Add `o`'s sampled counts into this histogram (snapshot-time
  /// aggregation across shards; not a hot-path call).
  void merge(const LatencyHistogram& o) {
    if constexpr (!kEnabled) return;
    for (usize i = 0; i < kBuckets; ++i) {
      const u64 d = o.buckets_[i].load(std::memory_order_relaxed);
      if (d != 0) {
        auto& b = buckets_[i];
        b.store(b.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
      }
    }
    sum_.store(sum_.load(std::memory_order_relaxed) +
                   o.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    const u64 omax = o.max_.load(std::memory_order_relaxed);
    if (omax > max_.load(std::memory_order_relaxed)) {
      max_.store(omax, std::memory_order_relaxed);
    }
  }

  static usize bucket_for(u64 v) {
    if (v < kSub) return static_cast<usize>(v);
    usize msb = 63 - static_cast<usize>(__builtin_clzll(v));
    return ((msb - kSubBits + 1) << kSubBits) |
           static_cast<usize>((v >> (msb - kSubBits)) & (kSub - 1));
  }

  /// Midpoint (in ticks) of a bucket, for percentile interpolation.
  static double bucket_midpoint(usize bucket);

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
  std::atomic<u64> sum_{0};
  std::atomic<u64> max_{0};
};

// ---------------------------------------------------------------------------
// Op kinds and latency phases.

/// Operation kinds traced/timed across the stack.
enum class OpKind : u8 {
  kInsert = 0,
  kFind,
  kErase,
  kExpand,
  kScrub,
  kRecover,
  kCompact,
  kMigrate,  ///< resize migration (one logical resize)
};
inline constexpr usize kOpKinds = 8;

const char* op_kind_name(OpKind kind);

/// Where a request's time went — the attribution axes of the `phases`
/// snapshot section and the per-request span tree (obs/span.hpp).
/// kRingWait is service-level (enqueue → worker pop); the rest bracket
/// map-level work: kPersist/kFence are time inside the PM policy's
/// flush/fence, kMigrateHelp is the help-along stall a mutating op pays
/// while an online resize drains, and kProbe is the residual (hashing,
/// tag probes, cell compares) so the five phases of one sampled op sum
/// exactly to its attributed time.
enum class Phase : u8 {
  kRingWait = 0,
  kProbe = 1,
  kPersist = 2,
  kFence = 3,
  kMigrateHelp = 4,
};
inline constexpr usize kPhases = 5;

const char* phase_name(Phase phase);

// ---------------------------------------------------------------------------
// Online-resize migration phases.
//
// A migration is one long-lived kMigrate flight op spanning thousands of
// data ops. Each step packs its phase and the durable cursor into the
// record's key_hash word — (phase << 56) | cursor — so an interrupted
// resize is reconstructible from the newest surviving record alone:
// `gh_stats --flight` decodes it back into a phase name + resume cursor.

enum class MigrationPhase : u8 {
  kNone = 0,
  kStart = 1,      ///< target region created + formatted
  kPublished = 2,  ///< cursor word activated in the source superblock
  kCursor = 3,     ///< cursor advanced past another batch of groups
  kFinalize = 4,   ///< final sync + rename of the target over the source
  kRetire = 5,     ///< old region retired; migration complete
  kResume = 6,     ///< reopen picked the migration up from the durable cursor
};

const char* migration_phase_name(MigrationPhase phase);

inline u64 encode_migration_mark(MigrationPhase phase, u64 cursor) {
  return (static_cast<u64>(phase) << 56) | (cursor & ((1ull << 56) - 1));
}
inline MigrationPhase decode_migration_phase(u64 key_hash) {
  const u64 p = key_hash >> 56;
  return p <= static_cast<u64>(MigrationPhase::kResume)
             ? static_cast<MigrationPhase>(p)
             : MigrationPhase::kNone;
}
inline u64 decode_migration_cursor(u64 key_hash) { return key_hash & ((1ull << 56) - 1); }

/// Phase tag carried by flight-recorder records (obs/flight_recorder.hpp).
/// kStart/kFinish bracket an op; kPublish marks the irreversible publish
/// step inside expand/compact (the paper's 8-byte commit); kEvent tags a
/// standalone lifecycle fact (quarantine, degradation) that is never
/// "in flight".
enum class FlightPhase : u8 {
  kStart = 0,
  kPublish = 1,
  kFinish = 2,
  kEvent = 3,
};

const char* flight_phase_name(FlightPhase phase);

/// Flight-recorder fidelity. kSampled records 1 in 2^kFlightSampleShift
/// data ops plus every lifecycle op (expand/compact/scrub/recover); kFull
/// records everything; kOff writes nothing and allocates no sidecar.
enum class FlightMode : u8 {
  kOff = 0,
  kSampled = 1,
  kFull = 2,
};

/// Default flight sampling shift: 1 in 2^7 data ops. The wrapped-ring
/// emit protocol costs up to three cacheline flushes per record (see
/// flight_recorder.hpp); at the paper's 300 ns flush model that is
/// ~1.8 µs per sampled op edge pair, so 1/128 keeps the recorder inside
/// the obs layer's ≤2% insert-overhead budget. Lifecycle ops bypass the
/// gate — they are rare and are exactly the records crash forensics
/// needs.
inline constexpr u32 kFlightSampleShift = 7;

// ---------------------------------------------------------------------------
// OpRecorder: one structure's per-op latency histograms.

/// The latency side of a map/table's observability: one histogram per op
/// kind. Each map owns one and reads it back through snapshot().
class OpRecorder {
 public:
  [[nodiscard]] LatencyHistogram& of(OpKind kind) {
    return histograms_[static_cast<usize>(kind)];
  }
  [[nodiscard]] const LatencyHistogram& of(OpKind kind) const {
    return histograms_[static_cast<usize>(kind)];
  }

  void record(OpKind kind, u64 ticks, u64 n = 1) { of(kind).record(ticks, n); }

  void reset() {
    for (auto& h : histograms_) h.reset();
  }

  /// Snapshot-time aggregation (e.g. across the shards of a concurrent
  /// map): adds `o`'s counts into this recorder.
  void merge(const OpRecorder& o) {
    for (usize k = 0; k < kOpKinds; ++k) histograms_[k].merge(o.histograms_[k]);
  }

 private:
  std::array<LatencyHistogram, kOpKinds> histograms_;
};

}  // namespace gh::obs
