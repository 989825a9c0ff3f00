// Sharded KV service front-end with batched ingest.
//
// A ShardServer owns N shard workers, each with its own GroupHashMap and
// its own bounded MPSC ingest ring (a hermetic in-process transport —
// the shared-memory-ring shape of a PM key-value postoffice, CI-testable
// without sockets). Client threads submit request *batches*: execute()
// groups the batch's keys by shard (same seeded routing hash as the
// concurrent wrappers), pushes one work item per touched shard, and
// blocks on an atomic completion counter until every shard visit
// finished.
//
// Who serves a slice: each shard has an ownership flag, and only its
// holder touches the shard map, the visit scratch, or pops the ring —
// the ring's single consumer is whoever owns the shard at the time.
// The worker takes the flag for each visit, each revive install and
// each idle migrate_step. A client takes it itself for a slice that
// holds only gets when that shard's ring is empty and the flag is free,
// and serves the slice on its own thread through the same visit body
// (kShardDown if the shard is dead), skipping the client → worker →
// client handoff. Every other slice goes through the ring: any slice
// with a put or erase, any slice of a busy shard, and every slice in
// `naive` mode. Writes stay on the worker so one visit still merges
// many clients' write windows. A client that releases the flag re-checks
// the ring (and a pending revive, resize or stop) and rings the doorbell,
// so a worker that found the flag taken never sleeps on queued work.
//
// The batching window is the worker's drain loop: each visit pops up to
// `batch_window` work items — possibly from many client batches — and
// executes ONE find_batch, ONE put_batch and ONE erase_batch against the
// shard map for the whole visit. That is where the PR 6 fast path pays
// off: the map-level batches prefetch tag lines across requests and
// coalesce persistence fences across the put window, so a visit costs a
// handful of fences instead of one per request. `naive = true` disables
// the grouping (one scalar map call per request) and exists purely as
// the baseline the batched path is measured against.
//
// Ordering semantics: within one client batch, requests that land on the
// same shard are executed grouped by kind — all gets, then all puts,
// then all erases — and in caller order within each kind (puts to the
// same key are last-wins, matching the map's batch contract). A batch is
// not an atomic transaction across shards.
//
// Failure semantics (the PR 3 degradation contract, lifted to the
// service):
//   * MapDegradedError from a put window → those puts answer kDegraded;
//     the shard STAYS UP (reads unaffected, the map retries its rebuild
//     with backoff), and a prefix of the window may have landed — the
//     client must treat kDegraded as "retry later", i.e. at-least-once.
//   * SimulatedCrash (fault-injected power failure) from any map call →
//     the worker marks its shard dead, abandon()s the map (dropping the
//     mappings exactly as a crash would), and answers kShardDown — for
//     the rest of that visit and for every later request routed to the
//     shard. The ingest ring keeps draining, so a dead shard never
//     wedges clients, and the shard's file reopens through the normal
//     recovery + flight-forensics path. A dead shard is not permanent:
//     restart_shard() reopens the map (recovery — including resuming an
//     interrupted online migration — runs on the caller's thread) and
//     the worker installs it between visits, after which the shard
//     serves again.
//
// Resize: by default a shard's resize drains inside the visit that
// triggered it. With map_options.migrate_groups_per_op bounded (say 1),
// a shard mid-resize keeps serving — writers help migrate that many
// groups per call, and the worker drains the tail from its idle loop
// (one migrate_step() burst per empty ring poll), so the resize finishes
// even on a read-only or idle shard without ever blocking a visit. A
// client that served gets inline on a resizing shard rings the doorbell
// as it lets go, so gets alone keep the drain going.
//
// Observability: execute() records end-to-end batch latency per request
// into a service-level obs::OpRecorder (get→kFind, put→kInsert,
// erase→kErase), and snapshot() rolls the per-shard map snapshots into
// one obs::Snapshot via absorb() — the same aggregation the concurrent
// wrappers use, so percentiles are computed from the union of samples.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/group_hash_map.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/types.hpp"

namespace gh::service {

enum class Op : u8 {
  kGet = 0,
  kPut = 1,
  kErase = 2,
};

enum class Status : u8 {
  kPending = 0,    ///< not yet executed (the in-flight placeholder)
  kOk = 1,         ///< get hit / put applied / erase removed a mapping
  kNotFound = 2,   ///< get or erase missed
  kDegraded = 3,   ///< put rejected by a degraded shard (retry later)
  kShardDown = 4,  ///< the shard's worker died (crash-injected)
};

[[nodiscard]] const char* to_string(Status s);

struct Request {
  Op op = Op::kGet;
  u64 key = 0;
  u64 value = 0;  ///< kPut payload; ignored otherwise
};

struct Response {
  Status status = Status::kPending;
  u64 value = 0;  ///< get-hit payload; 0 otherwise
};

class ShardServer;

/// One client batch. The caller fills `requests`, hands the batch to
/// ShardServer::execute(), and reads `responses()` when it returns; the
/// routing scratch (order/offsets) is reused across rounds so a steady
/// client allocates nothing after the first call. A Batch must stay
/// alive and untouched while in flight (execute() blocks, so normal use
/// is a stack or per-thread object).
class Batch {
 public:
  std::vector<Request> requests;

  [[nodiscard]] std::span<const Response> responses() const {
    return {responses_.data(), responses_.size()};
  }

  void clear() { requests.clear(); }

 private:
  friend class ShardServer;

  std::vector<Response> responses_;
  std::vector<u32> order_;    ///< request indices grouped by shard
  std::vector<u32> offsets_;  ///< shards+1 fence posts into order_
  std::vector<u32> cursor_;   ///< per-shard scatter position into order_
  std::vector<u32> shard_;    ///< each request's shard, from the count pass
  std::atomic<u32> pending_{0};
  /// Tick of the final complete() (traced batches only): lets the
  /// client attribute the futex wake as its own span, so a traced
  /// request's spans cover its whole end-to-end latency.
  std::atomic<u64> done_ticks_{0};
};

/// One unit of shard work: `count` request indices of `batch`, starting
/// at batch->order_[begin], all routed to the receiving shard.
/// `enqueue_ticks` is stamped at push so the worker can attribute the
/// MPSC ring wait (zero for a slice served inline, which never queued);
/// `trace_id`/`parent_span` carry the trace context of a sampled batch
/// through the ring (zero = untraced).
struct WorkItem {
  Batch* batch = nullptr;
  u32 begin = 0;
  u32 count = 0;
  u32 parent_span = 0;
  u64 trace_id = 0;
  u64 enqueue_ticks = 0;
};

/// Bounded multi-producer single-consumer ring (Vyukov sequence
/// discipline): producers claim a slot with one CAS on head_, the
/// consumer pops with plain loads/stores on tail_. try_push fails when
/// the ring is full — backpressure is the caller's spin, never an
/// unbounded queue.
class IngestRing {
 public:
  explicit IngestRing(u32 capacity) {
    u32 cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (u32 i = 0; i < cap; ++i) slots_[i].seq.store(i, std::memory_order_relaxed);
    mask_ = cap - 1;
  }

  [[nodiscard]] u32 capacity() const { return static_cast<u32>(mask_ + 1); }

  bool try_push(const WorkItem& w) {
    u64 pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const u64 seq = s.seq.load(std::memory_order_acquire);
      const i64 diff = static_cast<i64>(seq) - static_cast<i64>(pos);
      if (diff == 0) {
        // seq_cst: the claim is what an owner releasing the shard sees
        // in empty() (ShardServer's lost-wakeup argument, DESIGN.md).
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          s.item = w;
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// No slot claimed that the consumer has not popped yet. A claimed
  /// slot may still be unpublished, so a consumer can find a non-empty
  /// ring it cannot pop; its producer rings the doorbell after publishing.
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_seq_cst) == tail_.load(std::memory_order_relaxed);
  }

  /// Single consumer only (the shard's current owner).
  bool try_pop(WorkItem& out) {
    const u64 pos = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos & mask_];
    const u64 seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<i64>(seq) - static_cast<i64>(pos + 1) < 0) return false;
    out = s.item;
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

 private:
  struct Slot {
    std::atomic<u64> seq{0};
    WorkItem item;
  };

  std::unique_ptr<Slot[]> slots_;
  u64 mask_ = 0;
  alignas(kCachelineSize) std::atomic<u64> head_{0};
  alignas(kCachelineSize) std::atomic<u64> tail_{0};
};

struct ServiceOptions {
  u32 shards = 4;          ///< rounded up to a power of two
  u32 ring_capacity = 1024;  ///< work-item slots per shard ring
  u32 batch_window = 64;   ///< max work items drained per shard visit
  /// One scalar map call per request instead of one batched call per
  /// visit — the baseline the batched ingest path is measured against.
  bool naive = false;
  /// Non-empty → file-backed shard maps at <data_dir>/shard<i>.gh (the
  /// crash/forensics path); empty → in-memory shards.
  std::string data_dir;
  /// Request tracing: kOff (default), kSampled (1 in
  /// 2^obs::kTraceSampleShift batches) or kFull. A traced batch stamps its
  /// trace id on every work item; the worker adopts it around the shard
  /// visit so map ops emit spans into the per-thread span rings.
  obs::TraceMode trace_mode = obs::TraceMode::kOff;
  MapOptions map_options;
};

class ShardServer {
 public:
  explicit ShardServer(const ServiceOptions& options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Route, enqueue and wait for one client batch. Blocks until every
  /// touched shard answered; safe to call from many threads at once.
  /// Throws std::invalid_argument, before queueing anything, when a
  /// request's key is one GroupHashMap::check_keys rejects.
  void execute(Batch& batch);

  /// Stop accepting batches, drain the rings, join the workers, then
  /// take every shard's ownership flag for good, so snapshot() and the
  /// destructor never race a client's inline visit. Idempotent; the
  /// destructor calls it.
  void stop();

  [[nodiscard]] u32 shards() const { return nshards_; }
  [[nodiscard]] bool shard_down(u32 shard) const;
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

  /// Revive a kShardDown shard. The replacement map is opened on the
  /// CALLER's thread (file-backed shards re-run recovery — and resume an
  /// interrupted migration — right here; in-memory shards come back
  /// empty, exactly the post-power-loss contract), handed to the worker
  /// through `pending_map`, and installed by the worker at its loop top
  /// while it holds the shard's ownership flag, so no inline visit ever
  /// sees the swap. Blocks until the worker has swapped the map in
  /// and cleared `dead`. Returns false if the shard is not down, the
  /// reopen itself fails (the shard stays dead), or the server stops
  /// while waiting. Safe to call concurrently; calls are serialized.
  bool restart_shard(u32 shard);

  /// hash::shard_of, the concurrent wrappers' route, so a key's shard
  /// is the same in the service and the embedded maps.
  [[nodiscard]] static u32 shard_of(u64 key, u32 shards);

  /// Service-level end-to-end latency (batch round-trip attributed to
  /// each request: get→kFind, put→kInsert, erase→kErase). Safe to read
  /// while traffic is live.
  [[nodiscard]] const obs::OpRecorder& request_recorder() const { return recorder_; }
  void reset_request_stats() { recorder_.reset(); }

  /// Per-shard map snapshots rolled up with obs::Snapshot::absorb.
  /// Requires the server stopped (the shard maps are single-owner and
  /// quiescent only then); per_shard carries one brief per shard.
  [[nodiscard]] obs::Snapshot snapshot();

  /// Stats-poller view of a RUNNING server: only the pieces that are
  /// safe to read while workers serve traffic — the service-level
  /// latency recorder, the ring-wait + per-map phase accumulators, and
  /// the per-map migration gauges. Map internals (size/capacity/persist
  /// counters…) are single-owner and stay zero here; use snapshot()
  /// after stop() for those. Must not run concurrently with
  /// restart_shard() (the map swap is unsynchronized with this read).
  [[nodiscard]] obs::Snapshot live_snapshot() const;

 private:
  struct SlotRef {
    Batch* batch;
    u32 req;
  };

  struct Shard {
    explicit Shard(u32 ring_capacity) : ring(ring_capacity) {}

    IngestRing ring;
    u32 index = 0;  ///< shard number (span/trace labels)
    /// Ring-wait attribution gate, owner-local. Samples items at the
    /// same 1-in-2^latency_sample_shift rate the maps sample their op
    /// latencies, so the ring_wait share in Snapshot.phases is
    /// comparable against the map-side probe/persist/fence shares
    /// (attributing every item's wait against 1/64-sampled op time
    /// would report ~100% ring_wait no matter the real balance).
    obs::SampleGate ring_gate;
    alignas(kCachelineSize) std::atomic<u64> doorbell{0};
    /// Ownership flag: its holder alone touches `map` and the visit
    /// scratch below and pops `ring` (see the header comment).
    std::atomic<bool> owned{false};
    std::atomic<bool> dead{false};
    std::unique_ptr<GroupHashMap> map;
    std::thread worker;

    // Revival handoff (restart_shard): the caller parks the reopened map
    // in pending_map and raises revive; the worker installs it at loop
    // top and lowers the flag. revive's release/acquire pair publishes
    // the pending_map write to the worker.
    std::unique_ptr<GroupHashMap> pending_map;
    std::atomic<bool> revive{false};

    // Owner-local batching scratch, reused every visit.
    std::vector<WorkItem> visit;
    std::vector<u64> get_keys;
    std::vector<std::optional<u64>> get_out;
    std::vector<SlotRef> get_slots;
    std::vector<u64> put_keys;
    std::vector<u64> put_vals;
    std::vector<SlotRef> put_slots;
    std::vector<u64> erase_keys;
    std::vector<u8> erase_hits;
    std::vector<SlotRef> erase_slots;
  };

  void worker_loop(Shard& shard);
  bool try_serve_inline(Shard& shard, const WorkItem& item);
  static bool try_own(Shard& shard);
  void run_visit(Shard& shard);
  void serve_visit(Shard& shard);
  void serve_visit_naive(Shard& shard);
  void kill_shard(Shard& shard);
  void push_item(Shard& shard, const WorkItem& item);
  static void answer_item(const WorkItem& item, Status status);
  static void complete(Batch* batch);

  ServiceOptions options_;
  u32 nshards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex restart_mu_;  ///< serializes restart_shard callers
  obs::OpRecorder recorder_;
  /// Batch counter driving kSampled trace admission (1 in 2^shift).
  std::atomic<u64> trace_seq_{0};
  /// Ring-wait attribution: ticks each request spent queued in the MPSC
  /// ring, bucketed per OpKind. Lives at the server (the wait is a
  /// transport property, not a map property) and is merged into both
  /// snapshot() and live_snapshot().
  obs::PhaseAccum ring_phases_;
};

}  // namespace gh::service
