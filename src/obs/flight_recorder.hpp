// NVM-persistent flight recorder — a crash-surviving "black box" of
// recent operations.
//
// The rest of the obs layer (metrics.hpp, snapshot.hpp) is DRAM-only:
// after a crash it can say that recovery restored invariants but not
// what the table was DOING when it died. The flight recorder closes that
// gap with per-thread ring buffers of fixed 32-byte op-event records
// living in a sidecar PM region (`<map>.flight`) allocated through the
// same region + persistence layers as the data file, so it participates
// in latency injection (DirectPM flush spin), fault injection (FaultFs
// sees the sidecar's create) and crash simulation (ShadowPM, in tests).
//
// Record layout — one half cacheline, the In-Cache-Line-Logging shape
// (ASPLOS 2019) with the paper's own 8-byte-commit discipline:
//
//     u64 key_hash   payload: key hash, or event payload for kEvent
//     u64 seqno      payload: op id (groups the start/publish/finish
//                    records of one op across phases)
//     u64 tsc        payload: raw TSC at emit time
//     u64 commit     [63:48] magic  [47:32] crc16 of the 3 payload words
//                    [31:16] ring   [15:8] FlightPhase  [7:0] OpKind
//
// Emit protocol (mirrors the data path's publish protocol):
//   1. if the slot has been used before (ring wrapped): atomically zero
//      the commit word and persist it — otherwise a crash mid-overwrite
//      could pair the OLD valid commit with a partially-NEW payload, a
//      torn record;
//   2. store the three payload words, persist (24 B, one flush);
//   3. atomically store the commit word, persist (8 B, one flush).
// Under the arbitrary-subset crash model every slot is therefore in one
// of three states: old record intact, empty (commit 0), or new record
// complete — never torn. The crash-fuzz suite asserts exactly this
// across eviction schedules. Step 1 is batched kInvalidateBatch slots
// ahead, and is skipped entirely on the virgin first lap.
//
// Reading the box: reopen scans the rings (scan_flight), reconstructs
// the set of ops in flight at the crash — an op is in flight when it has
// a start or publish record but no finish — surfaces it in the recovery
// report and obs::Snapshot, then reformats the rings for the new run.
// `gh_stats --flight <file>` renders the same scan as a text timeline or
// Chrome trace-event JSON without opening the map.
//
// Under GH_OBS_OFF every emit hook constant-folds away, the maps never
// create the sidecar, and only the offline scan/export surface (plain
// byte readers) stays live so gh_stats can still inspect foreign files.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/counters.hpp"
#include "util/crc32c.hpp"
#include "util/types.hpp"

namespace gh::obs {

// ---------------------------------------------------------------------------
// On-media format.

/// One 32-byte flight record: three payload words and one commit word.
struct FlightRecord {
  u64 key_hash = 0;
  u64 seqno = 0;
  u64 tsc = 0;
  u64 commit = 0;
};
static_assert(sizeof(FlightRecord) == 32);

/// Commit-word tag ([63:48]); distinguishes a committed record from the
/// zeroed (empty/invalidated) state and from stray corruption.
inline constexpr u64 kFlightCommitMagic = 0xF17E;

/// Sidecar header magic ("GHFLIGHT") and version.
inline constexpr u64 kFlightMagic = 0x5448474931464847ull;
inline constexpr u64 kFlightVersion = 1;
inline constexpr usize kFlightHeaderBytes = 4096;

/// Default ring geometry: 4 rings × 256 slots × 32 B ≈ 32 KB of history
/// plus the 4 KB header. Maps use these; tests shrink them to force
/// wrap-around.
inline constexpr u32 kFlightRings = 4;
inline constexpr u32 kFlightSlotsPerRing = 256;

/// Slots invalidated per batch once a ring wraps (must divide the slot
/// count). Batching turns the extra commit-zeroing flush from one per
/// record into one per kInvalidateBatch/2 lines.
inline constexpr u32 kFlightInvalidateBatch = 32;

/// Standalone lifecycle facts journaled as FlightPhase::kEvent records
/// (carried in the key_hash payload word).
enum class FlightEvent : u64 {
  kQuarantine = 1,  ///< scrub quarantined one or more groups
  kDegraded = 2,    ///< expand/compact failed; map degraded (ENOSPC path)
};

const char* flight_event_name(FlightEvent e);

/// CRC16 (low half of CRC32C) over the three payload words.
inline u16 flight_checksum(u64 key_hash, u64 seqno, u64 tsc) {
  u32 crc = crc32c_update(~0u, &key_hash, sizeof(key_hash));
  crc = crc32c_update(crc, &seqno, sizeof(seqno));
  crc = crc32c_update(crc, &tsc, sizeof(tsc));
  return static_cast<u16>(~crc);
}

inline u64 flight_encode_commit(OpKind kind, FlightPhase phase, u32 ring, u16 checksum) {
  return (kFlightCommitMagic << 48) | (static_cast<u64>(checksum) << 32) |
         (static_cast<u64>(ring & 0xffff) << 16) |
         (static_cast<u64>(static_cast<u8>(phase)) << 8) |
         static_cast<u64>(static_cast<u8>(kind));
}

/// Sidecar header (first 4 KB of the region; the rings follow).
struct FlightHeader {
  u64 magic = kFlightMagic;
  u64 version = kFlightVersion;
  u64 ring_count = 0;
  u64 slots_per_ring = 0;
  u64 record_bytes = sizeof(FlightRecord);
  u64 crc = 0;

  [[nodiscard]] u64 compute_crc() const {
    return crc32c(this, offsetof(FlightHeader, crc));
  }
};

/// Bytes a flight region needs for the given geometry.
constexpr usize flight_required_bytes(u32 rings = kFlightRings,
                                      u32 slots = kFlightSlotsPerRing) {
  return kFlightHeaderBytes +
         static_cast<usize>(rings) * slots * sizeof(FlightRecord);
}

// ---------------------------------------------------------------------------
// Offline scan (works on raw bytes; no PM or map required).

/// One decoded, checksum-valid record.
struct FlightRecordView {
  u32 ring = 0;
  OpKind kind = OpKind::kInsert;
  FlightPhase phase = FlightPhase::kStart;
  u64 key_hash = 0;
  u64 seqno = 0;
  u64 tsc = 0;
};

/// An op the recorder shows as in flight at the crash: it reached start
/// (and possibly publish) but never finish.
struct InFlightOp {
  OpKind kind = OpKind::kInsert;
  FlightPhase phase = FlightPhase::kStart;  ///< deepest phase reached
  u32 ring = 0;
  u64 key_hash = 0;
  u64 seqno = 0;
  u64 tsc = 0;  ///< TSC of the deepest record
};

/// Result of scanning a flight region.
struct FlightScan {
  bool valid_header = false;
  u64 ring_count = 0;
  u64 slots_per_ring = 0;
  u64 slots_scanned = 0;
  u64 records_valid = 0;
  u64 records_empty = 0;
  /// Slots whose commit word is non-zero but fails the magic/checksum/
  /// range checks. The emit protocol guarantees zero after any simulated
  /// crash; non-zero means media corruption or a protocol bug.
  u64 records_torn = 0;
  std::vector<FlightRecordView> records;  ///< valid records, seqno order
  std::vector<InFlightOp> in_flight;      ///< seqno order
};

/// Scan a flight region's raw bytes (header + rings). Never throws; a
/// missing/corrupt header yields valid_header = false.
FlightScan scan_flight(std::span<const std::byte> bytes);

/// Human-readable timeline of a scan (gh_stats --flight).
std::string flight_timeline_text(const FlightScan& scan);

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of a scan:
/// complete "X" events for start→finish pairs, instant events for
/// unpaired records (gh_stats --flight --trace out.json). Events are
/// globally sorted by ts — per-ring TSC skew otherwise yields
/// out-of-order events Chrome's viewer silently drops.
std::string flight_trace_json(const FlightScan& scan);

/// Append a scan's events to a shared list (obs/span.hpp TraceEvent)
/// so gh_stats can merge flight and span sources into one sorted trace.
/// `base_ticks` anchors the µs axis (0 = the scan's own first record);
/// a merged view passes the min over every source so both sit on one
/// axis (flight records and spans share the TSC domain).
struct TraceEvent;
void append_flight_trace_events(const FlightScan& scan, std::vector<TraceEvent>& out,
                                u64 base_ticks = 0);

// ---------------------------------------------------------------------------
// Recorder (emit path).

/// The writer side, templated over the persistence policy so tests can
/// drive it through ShadowPM crash simulation. Constructing one formats
/// the region (header + zeroed rings) — reopen forensics happen via
/// scan_flight BEFORE the recorder takes over, because the previous
/// run's ring cursors are not recoverable and a black box is consumed
/// when read.
///
/// Threading: ring cursors are atomic and threads are spread over rings
/// round-robin (one ring per thread mod ring_count), so concurrent
/// emitters on different threads usually touch different rings; within a
/// ring, slot claims are atomic. A racing overwrite can drop a record
/// (commit zeroed by a concurrent invalidation batch) but never tear one.
template <class PM>
class BasicFlightRecorder {
 public:
  BasicFlightRecorder(PM& pm, std::span<std::byte> mem, u32 rings = kFlightRings,
                      u32 slots = kFlightSlotsPerRing)
      : pm_(&pm), mem_(mem), rings_(rings), slots_(slots) {
    GH_CHECK(rings_ > 0 && slots_ > 0);
    GH_CHECK(slots_ % kFlightInvalidateBatch == 0);
    GH_CHECK(mem_.size() >= flight_required_bytes(rings_, slots_));
    ring_state_ = std::make_unique<RingState[]>(rings_);
    if constexpr (!kEnabled) return;
    format();
  }

  BasicFlightRecorder(const BasicFlightRecorder&) = delete;
  BasicFlightRecorder& operator=(const BasicFlightRecorder&) = delete;

  void set_mode(FlightMode m) { mode_ = kEnabled ? m : FlightMode::kOff; }
  [[nodiscard]] FlightMode mode() const { return mode_; }

  /// Start edge of a data op. `sampled` is the caller's admission
  /// decision (obs::OpScope draws it from the structure's one sampling
  /// ticket): kSampled mode journals only admitted ops, kFull every op.
  /// Returns the op token; 0 means the op was not journaled (pass it
  /// along — the other edges no-op on 0).
  u64 op_begin(OpKind kind, u64 key_hash, bool sampled) {
    if constexpr (!kEnabled) return 0;
    if (mode_ == FlightMode::kOff) return 0;
    if (mode_ == FlightMode::kSampled && !sampled) return 0;
    return emit_new(kind, FlightPhase::kStart, key_hash);
  }

  /// Start edge of a lifecycle op (expand/compact/scrub/recover): always
  /// recorded unless the recorder is off — these are rare and are the
  /// records crash forensics exists for.
  u64 op_begin_always(OpKind kind, u64 key_hash = 0) {
    if constexpr (!kEnabled) return 0;
    if (mode_ == FlightMode::kOff) return 0;
    return emit_new(kind, FlightPhase::kStart, key_hash);
  }

  /// Publish step inside an op (just before the irreversible rename /
  /// 8-byte commit).
  void op_mark(u64 token, OpKind kind, u64 key_hash = 0) {
    if constexpr (!kEnabled) return;
    if (token != 0) emit(token, kind, FlightPhase::kPublish, key_hash);
  }

  /// Finish edge.
  void op_end(u64 token, OpKind kind, u64 key_hash = 0) {
    if constexpr (!kEnabled) return;
    if (token != 0) emit(token, kind, FlightPhase::kFinish, key_hash);
  }

  /// Standalone lifecycle fact (never counts as in flight).
  void event(FlightEvent e, OpKind kind) {
    if constexpr (!kEnabled) return;
    if (mode_ == FlightMode::kOff) return;
    emit_new(kind, FlightPhase::kEvent, static_cast<u64>(e));
  }

 private:
  struct alignas(kCachelineSize) RingState {
    std::atomic<u64> seq{0};                ///< records appended (absolute)
    std::atomic<u64> invalidated_until{0};  ///< abs. seq with commit pre-zeroed
  };

  void format() {
    std::byte* base = mem_.data();
    FlightHeader h;
    h.ring_count = rings_;
    h.slots_per_ring = slots_;
    h.crc = h.compute_crc();
    const u64* words = reinterpret_cast<const u64*>(&h);
    for (usize i = 0; i < sizeof(FlightHeader) / sizeof(u64); ++i) {
      pm_->store_u64(reinterpret_cast<u64*>(base) + i, words[i]);
    }
    pm_->persist(base, sizeof(FlightHeader));
    const usize ring_bytes =
        static_cast<usize>(rings_) * slots_ * sizeof(FlightRecord);
    pm_->fill(base + kFlightHeaderBytes, 0, ring_bytes);
    pm_->persist(base + kFlightHeaderBytes, ring_bytes);
    for (u32 r = 0; r < rings_; ++r) {
      ring_state_[r].seq.store(0, std::memory_order_relaxed);
      // The freshly-zeroed first lap needs no invalidation pass.
      ring_state_[r].invalidated_until.store(slots_, std::memory_order_relaxed);
    }
  }

  FlightRecord* slot_ptr(u32 ring, u64 slot) {
    return reinterpret_cast<FlightRecord*>(
        mem_.data() + kFlightHeaderBytes +
        (static_cast<usize>(ring) * slots_ + slot) * sizeof(FlightRecord));
  }

  /// Ring for the calling thread: its round-robin thread slot.
  u32 ring_index() const { return thread_slot() % rings_; }

  /// Ensure the commit words of slots [seq, …) the ring is about to
  /// reuse are zeroed-and-persisted, a batch at a time.
  void ensure_invalidated(u32 ring, RingState& rs, u64 seq) {
    u64 until = rs.invalidated_until.load(std::memory_order_relaxed);
    while (seq >= until) {
      if (!rs.invalidated_until.compare_exchange_weak(
              until, until + kFlightInvalidateBatch, std::memory_order_relaxed)) {
        continue;  // another thread claimed the batch; re-check
      }
      // `until` is a multiple of the batch size and the batch divides the
      // slot count, so the claimed batch never wraps the ring.
      FlightRecord* first = slot_ptr(ring, until % slots_);
      for (u32 i = 0; i < kFlightInvalidateBatch; ++i) {
        pm_->atomic_store_u64(&first[i].commit, 0);
      }
      pm_->persist(first, kFlightInvalidateBatch * sizeof(FlightRecord));
      until += kFlightInvalidateBatch;
    }
  }

  u64 emit_new(OpKind kind, FlightPhase phase, u64 key_hash) {
    const u64 token = next_op_.fetch_add(1, std::memory_order_relaxed);
    emit(token, kind, phase, key_hash);
    return token;
  }

  void emit(u64 seqno, OpKind kind, FlightPhase phase, u64 key_hash) {
    const u32 ring = ring_index();
    RingState& rs = ring_state_[ring];
    const u64 seq = rs.seq.fetch_add(1, std::memory_order_relaxed);
    ensure_invalidated(ring, rs, seq);
    FlightRecord* slot = slot_ptr(ring, seq % slots_);
    const u64 tsc = now_ticks();
    pm_->store_u64(&slot->key_hash, key_hash);
    pm_->store_u64(&slot->seqno, seqno);
    pm_->store_u64(&slot->tsc, tsc);
    pm_->persist(slot, 3 * sizeof(u64));
    pm_->atomic_store_u64(
        &slot->commit,
        flight_encode_commit(kind, phase, ring, flight_checksum(key_hash, seqno, tsc)));
    pm_->persist(&slot->commit, sizeof(u64));
  }

  PM* pm_;
  std::span<std::byte> mem_;
  u32 rings_;
  u32 slots_;
  FlightMode mode_ = FlightMode::kSampled;
  std::atomic<u64> next_op_{1};  ///< 0 is the "not recorded" token
  std::unique_ptr<RingState[]> ring_state_;
};

}  // namespace gh::obs

namespace gh::nvm {
class DirectPM;
}  // namespace gh::nvm

namespace gh::obs {
/// The production recorder (maps own one over their `.flight` sidecar).
using FlightRecorder = BasicFlightRecorder<nvm::DirectPM>;
}  // namespace gh::obs
