#include "service/service.hpp"

#include <array>
#include <exception>

#include "core/errors.hpp"
#include "hash/hash_functions.hpp"
#include "nvm/fault_fs.hpp"
#include "util/assert.hpp"
#include "util/seqlock.hpp"

namespace gh::service {

namespace {

/// Request kinds: Op's enumerators are 0, 1, 2.
constexpr usize kRequestOps = 3;

inline obs::OpKind op_kind(Op op) {
  switch (op) {
    case Op::kGet: return obs::OpKind::kFind;
    case Op::kPut: return obs::OpKind::kInsert;
    case Op::kErase: return obs::OpKind::kErase;
  }
  return obs::OpKind::kFind;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kPending: return "pending";
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kDegraded: return "degraded";
    case Status::kShardDown: return "shard_down";
  }
  return "?";
}

u32 ShardServer::shard_of(u64 key, u32 shards) {
  return static_cast<u32>(hash::shard_of(key, shards));
}

ShardServer::ShardServer(const ServiceOptions& options) : options_(options) {
  GH_CHECK_MSG(options_.batch_window >= 1,
               "batch_window must be >= 1 (a zero window would never drain the ring)");
  u32 n = 1;
  while (n < options_.shards) n <<= 1;
  nshards_ = n;
  shards_.reserve(nshards_);
  for (u32 s = 0; s < nshards_; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
    Shard& shard = *shards_.back();
    shard.index = s;
    shard.ring_gate.set_shift(options_.map_options.latency_sample_shift);
    if (options_.data_dir.empty()) {
      shard.map = std::make_unique<GroupHashMap>(
          GroupHashMap::create_in_memory(options_.map_options));
    } else {
      const std::string path =
          options_.data_dir + "/shard" + std::to_string(s) + ".gh";
      shard.map =
          std::make_unique<GroupHashMap>(GroupHashMap::create(path, options_.map_options));
    }
  }
  running_.store(true, std::memory_order_release);
  for (u32 s = 0; s < nshards_; ++s) {
    Shard& shard = *shards_[s];
    shard.worker = std::thread([this, &shard] { worker_loop(shard); });
  }
}

ShardServer::~ShardServer() { stop(); }

bool ShardServer::shard_down(u32 shard) const {
  return shards_[shard]->dead.load(std::memory_order_acquire);
}

void ShardServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // seq_cst: a client letting go of a shard reads this flag to decide
  // whether the worker needs a doorbell (try_serve_inline).
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    shard->doorbell.fetch_add(1, std::memory_order_release);
    shard->doorbell.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Keep every shard from here on: a client still inside an inline
  // visit finishes it first, and no later one can start.
  for (auto& shard : shards_) {
    while (!try_own(*shard)) std::this_thread::yield();
  }
}

bool ShardServer::try_own(Shard& shard) {
  bool expected = false;
  return shard.owned.compare_exchange_strong(expected, true, std::memory_order_seq_cst);
}

bool ShardServer::try_serve_inline(Shard& shard, const WorkItem& item) {
  if (!shard.ring.empty() || !try_own(shard)) return false;
  shard.visit.clear();
  shard.visit.push_back(item);
  shard.visit.back().enqueue_ticks = 0;  // never queued: no ring wait to book
  run_visit(shard);
  const bool resizing =
      !shard.dead.load(std::memory_order_relaxed) && shard.map->migration_active();
  // Lost-wakeup rule: the worker loads the doorbell before it tries the
  // flag, and this owner clears the flag before it re-checks. With all
  // four seq_cst, a worker that found the flag taken and went to sleep
  // is woken here for any push, revive or stop that it did not see.
  shard.owned.store(false, std::memory_order_seq_cst);
  if (resizing || !shard.ring.empty() || shard.revive.load(std::memory_order_seq_cst) ||
      stopping_.load(std::memory_order_seq_cst)) {
    shard.doorbell.fetch_add(1, std::memory_order_release);
    shard.doorbell.notify_one();
  }
  return true;
}

void ShardServer::push_item(Shard& shard, const WorkItem& item) {
  // Bounded ring = bounded memory; a full ring is backpressure, and the
  // producer spins until the worker frees a slot. A dead shard keeps
  // draining (answering kShardDown), so this spin always terminates.
  u32 spins = 0;
  while (!shard.ring.try_push(item)) {
    if (++spins < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  shard.doorbell.fetch_add(1, std::memory_order_release);
  shard.doorbell.notify_one();
}

void ShardServer::execute(Batch& batch) {
  GH_CHECK(running());
  const u32 n = static_cast<u32>(batch.requests.size());
  batch.responses_.assign(n, Response{});
  if (n == 0) return;

  // Counting sort the request indices by shard: one pass to count, one
  // to scatter. offsets_ keeps the fence posts so each shard's slice of
  // order_ is contiguous and in caller order. The count pass hashes each
  // key's shard once, counts the requests of each op kind for the
  // latency record, and rejects a key no shard map can store, before
  // anything is queued, so no worker meets one.
  batch.offsets_.assign(nshards_ + 1, 0);
  batch.order_.resize(n);
  batch.shard_.resize(n);
  std::array<u32, kRequestOps> per_kind{};
  for (u32 i = 0; i < n; ++i) {
    const Request& rq = batch.requests[i];
    GroupHashMap::check_keys({&rq.key, 1});
    batch.shard_[i] = shard_of(rq.key, nshards_);
    batch.offsets_[batch.shard_[i] + 1]++;
    per_kind[static_cast<usize>(rq.op)]++;
  }
  for (u32 s = 0; s < nshards_; ++s) batch.offsets_[s + 1] += batch.offsets_[s];
  batch.cursor_.assign(batch.offsets_.begin(), batch.offsets_.end() - 1);
  for (u32 i = 0; i < n; ++i) batch.order_[batch.cursor_[batch.shard_[i]]++] = i;

  const u64 t0 = obs::now_ticks();

  // Trace admission, per batch at ingest: kFull traces everything,
  // kSampled admits 1 in 2^kTraceSampleShift batches off an atomic counter. A
  // traced batch gets a trace id and a pre-allocated root span id that
  // every work item carries through the ring.
  u64 trace_id = 0;
  u32 root_span = 0;
  if (obs::kEnabled && options_.trace_mode != obs::TraceMode::kOff) {
    const bool admit =
        options_.trace_mode == obs::TraceMode::kFull ||
        (trace_seq_.fetch_add(1, std::memory_order_relaxed) &
         ((u64{1} << obs::kTraceSampleShift) - 1)) == 0;
    if (admit) {
      trace_id = obs::SpanCollector::global().next_trace_id();
      root_span = obs::SpanCollector::global().next_span_id();
    }
  }
  const auto make_item = [&](u32 begin, u32 count) {
    WorkItem w{&batch, begin, count};
    if constexpr (obs::kEnabled) {
      w.trace_id = trace_id;
      w.parent_span = root_span;
      w.enqueue_ticks = t0;
    }
    return w;
  };

  if (options_.naive) {
    // Baseline transport: one work item (and one scalar map call) per
    // request — what a request-per-message server would do.
    batch.pending_.store(n, std::memory_order_release);
    for (u32 s = 0; s < nshards_; ++s) {
      for (u32 i = batch.offsets_[s]; i < batch.offsets_[s + 1]; ++i) {
        push_item(*shards_[s], make_item(i, 1));
      }
    }
  } else {
    u32 touched = 0;
    for (u32 s = 0; s < nshards_; ++s) {
      touched += batch.offsets_[s + 1] > batch.offsets_[s];
    }
    batch.pending_.store(touched, std::memory_order_release);
    // Queue the slices with writes first so their workers can start,
    // then serve each read-only slice here if its shard is idle.
    const auto read_only = [&](u32 s) {
      for (u32 i = batch.offsets_[s]; i < batch.offsets_[s + 1]; ++i) {
        if (batch.requests[batch.order_[i]].op != Op::kGet) return false;
      }
      return true;
    };
    u32 inline_served = 0;
    for (const bool reads : {false, true}) {
      for (u32 s = 0; s < nshards_; ++s) {
        const u32 begin = batch.offsets_[s];
        const u32 count = batch.offsets_[s + 1] - begin;
        if (count == 0 || read_only(s) != reads) continue;
        const WorkItem item = make_item(begin, count);
        if (reads && try_serve_inline(*shards_[s], item)) {
          ++inline_served;
        } else {
          push_item(*shards_[s], item);
        }
      }
    }
    if (inline_served > 0) batch.pending_.fetch_sub(inline_served, std::memory_order_acq_rel);
  }

  for (u32 p = batch.pending_.load(std::memory_order_acquire); p != 0;
       p = batch.pending_.load(std::memory_order_acquire)) {
    batch.pending_.wait(p, std::memory_order_acquire);
  }

  const u64 t1 = obs::now_ticks();
  const u64 dt = t1 - t0;
  // One sample per request, recorded once per op kind.
  for (usize k = 0; k < kRequestOps; ++k) {
    if (per_kind[k] != 0) recorder_.record(op_kind(static_cast<Op>(k)), dt, per_kind[k]);
  }
  if (trace_id != 0) {
    // The wake span covers "last shard answered → this thread resumed"
    // (futex wake + scheduling), the one stretch of a request's life no
    // worker-side span can see.
    const u64 done = batch.done_ticks_.load(std::memory_order_relaxed);
    if (done > t0 && done < t1) {
      obs::emit_span(obs::SpanKind::kWake, trace_id, root_span, done, t1);
    }
    obs::emit_span_with_id(obs::SpanKind::kRequest, trace_id, root_span,
                           /*parent=*/0, t0, t1);
  }
}

void ShardServer::complete(Batch* batch) {
  if (batch->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if constexpr (obs::kEnabled) {
      batch->done_ticks_.store(obs::now_ticks(), std::memory_order_relaxed);
    }
    batch->pending_.notify_all();
  }
}

void ShardServer::answer_item(const WorkItem& item, Status status) {
  for (u32 i = 0; i < item.count; ++i) {
    const u32 r = item.batch->order_[item.begin + i];
    item.batch->responses_[r] = Response{status, 0};
  }
}

void ShardServer::kill_shard(Shard& shard) {
  // A SimulatedCrash froze this shard's map mid-operation (the caller
  // owns the shard). Treat the shard as power-failed: drop the mappings
  // without flushing (exactly what abandon() models) and answer
  // kShardDown from here on. The ring keeps draining so clients never
  // wedge on a dead shard.
  shard.dead.store(true, std::memory_order_release);
  shard.map->abandon();
}

bool ShardServer::restart_shard(u32 shard_idx) {
  GH_CHECK(shard_idx < nshards_);
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(restart_mu_);
  if (!running() || !shard.dead.load(std::memory_order_acquire)) return false;
  // Reopen on the caller's thread: recovery (and resuming an interrupted
  // migration) can take a while, and the worker must keep draining its
  // ring — answering kShardDown — the whole time. File-backed shards
  // reopen their file through the normal recovery path; in-memory shards
  // lost their mappings with the "power failure" and come back empty.
  std::unique_ptr<GroupHashMap> fresh;
  try {
    if (options_.data_dir.empty()) {
      fresh = std::make_unique<GroupHashMap>(
          GroupHashMap::create_in_memory(options_.map_options));
    } else {
      const std::string path =
          options_.data_dir + "/shard" + std::to_string(shard_idx) + ".gh";
      fresh =
          std::make_unique<GroupHashMap>(GroupHashMap::open(path, options_.map_options));
    }
  } catch (...) {
    return false;  // reopen failed; the shard stays down and the caller may retry
  }
  shard.pending_map = std::move(fresh);
  // seq_cst: read by a client letting go of the shard (try_serve_inline).
  shard.revive.store(true, std::memory_order_seq_cst);
  shard.doorbell.fetch_add(1, std::memory_order_release);
  shard.doorbell.notify_all();
  // The worker installs the map at its loop top; wait for that so the
  // caller's next batch cannot race the swap. If the server stops before
  // the install, the worker exits without installing — bail out.
  while (shard.revive.load(std::memory_order_acquire)) {
    if (!running()) return false;
    std::this_thread::yield();
  }
  return true;
}

void ShardServer::worker_loop(Shard& shard) {
  // Idle-loop migration drain: groups retired per empty ring poll. Large
  // enough that an idle shard finishes a resize in a few wakeups, small
  // enough that a request arriving mid-burst waits at most one burst.
  constexpr u64 kIdleMigrateGroups = 64;
  // Items of the last visit, completed after the flag is released so a
  // woken client can find its shard free; the shard's own scratch
  // belongs to the next owner by then.
  std::vector<WorkItem> served;
  for (;;) {
    // Doorbell before flag: a client that owns the shard now rings it
    // as it lets go if anything waits for this worker.
    const u64 seen = shard.doorbell.load(std::memory_order_acquire);
    if (!try_own(shard)) {
      shard.doorbell.wait(seen, std::memory_order_acquire);
      continue;
    }
    if (shard.revive.load(std::memory_order_acquire)) {
      // restart_shard parked a freshly reopened map; install it while
      // owning the shard so no visit sees the swap.
      shard.map = std::move(shard.pending_map);
      shard.dead.store(false, std::memory_order_release);
      shard.revive.store(false, std::memory_order_release);
      shard.revive.notify_all();
    }
    shard.visit.clear();
    WorkItem w;
    while (shard.visit.size() < options_.batch_window && shard.ring.try_pop(w)) {
      shard.visit.push_back(w);
    }
    if (shard.visit.empty()) {
      bool stepped = false;
      const bool stopping = stopping_.load(std::memory_order_acquire);
      if (!stopping && !shard.dead.load(std::memory_order_relaxed) &&
          shard.map->migration_active()) {
        try {
          // Re-poll the ring after every burst so background draining
          // never starves a request by more than one burst. A zero-group
          // step (finalize in degraded backoff) falls through to the
          // doorbell wait instead of spinning on the cooldown.
          stepped = shard.map->migrate_step(kIdleMigrateGroups) > 0;
        } catch (const nvm::SimulatedCrash&) {
          kill_shard(shard);
        }
      }
      shard.owned.store(false, std::memory_order_seq_cst);
      // stop() rings every doorbell after flipping the flag and
      // execute() refuses new batches, so an empty ring here is final.
      if (stopping) return;
      if (!stepped) shard.doorbell.wait(seen, std::memory_order_acquire);
      continue;
    }
    run_visit(shard);
    served.swap(shard.visit);
    shard.owned.store(false, std::memory_order_seq_cst);
    for (const WorkItem& item : served) complete(item.batch);
  }
}

void ShardServer::run_visit(Shard& shard) {
  if (shard.dead.load(std::memory_order_relaxed)) {
    for (const WorkItem& item : shard.visit) answer_item(item, Status::kShardDown);
    return;
  }
  // Ring-wait attribution + trace adoption. Each queued item's enqueue →
  // pop wait books under Phase::kRingWait per request kind (added to both
  // the bucket and the attributed total, so phases still sum to the
  // request's attributed time); an inline item (enqueue_ticks 0) never
  // waited. Traced queued items get a ring_wait span; the first traced
  // item's context is adopted for the whole visit so the map ops inside
  // emit their spans under one shard_visit parent.
  u64 visit_trace = 0;
  u32 visit_parent = 0;
  const u64 pop_ticks = obs::kEnabled ? obs::now_ticks() : 0;
  if constexpr (obs::kEnabled) {
    for (const WorkItem& item : shard.visit) {
      if (item.enqueue_ticks != 0) {
        const u64 wait =
            pop_ticks > item.enqueue_ticks ? pop_ticks - item.enqueue_ticks : 0;
        if (shard.ring_gate.admit()) {
          for (u32 i = 0; i < item.count; ++i) {
            const Request& rq =
                item.batch->requests[item.batch->order_[item.begin + i]];
            ring_phases_.add_wait(op_kind(rq.op), obs::Phase::kRingWait, wait);
          }
        }
        if (item.trace_id != 0) {
          obs::emit_span(obs::SpanKind::kRingWait, item.trace_id, item.parent_span,
                         item.enqueue_ticks, pop_ticks, static_cast<u8>(shard.index));
        }
      }
      if (item.trace_id != 0 && visit_trace == 0) {
        visit_trace = item.trace_id;
        visit_parent = item.parent_span;
      }
    }
  }
  u32 visit_span = 0;
  if (visit_trace != 0) {
    visit_span = obs::SpanCollector::global().next_span_id();
    obs::set_thread_trace(visit_trace, visit_span, true);
  }
  if (options_.naive) {
    serve_visit_naive(shard);
  } else {
    serve_visit(shard);
  }
  if (visit_trace != 0) {
    obs::clear_thread_trace();
    obs::emit_span_with_id(obs::SpanKind::kShardVisit, visit_trace, visit_span,
                           visit_parent, pop_ticks, obs::now_ticks(),
                           static_cast<u8>(shard.index));
  }
}

void ShardServer::serve_visit(Shard& shard) {
  // Bucket every request of the visit — across client batches — by kind,
  // then execute ONE map batch call per kind. This is the ingest
  // batching window: the map-level fast path prefetches tag lines across
  // the whole get set and coalesces fences across the whole put set.
  shard.get_keys.clear();
  shard.get_slots.clear();
  shard.put_keys.clear();
  shard.put_vals.clear();
  shard.put_slots.clear();
  shard.erase_keys.clear();
  shard.erase_slots.clear();

  for (const WorkItem& item : shard.visit) {
    for (u32 i = 0; i < item.count; ++i) {
      const u32 r = item.batch->order_[item.begin + i];
      const Request& rq = item.batch->requests[r];
      switch (rq.op) {
        case Op::kGet:
          shard.get_keys.push_back(rq.key);
          shard.get_slots.push_back(SlotRef{item.batch, r});
          break;
        case Op::kPut:
          shard.put_keys.push_back(rq.key);
          shard.put_vals.push_back(rq.value);
          shard.put_slots.push_back(SlotRef{item.batch, r});
          break;
        case Op::kErase:
          shard.erase_keys.push_back(rq.key);
          shard.erase_slots.push_back(SlotRef{item.batch, r});
          break;
      }
    }
  }

  if (!shard.get_keys.empty()) {
    shard.get_out.assign(shard.get_keys.size(), std::nullopt);
    try {
      shard.map->get_batch(shard.get_keys, shard.get_out);
      for (usize i = 0; i < shard.get_slots.size(); ++i) {
        const SlotRef slot = shard.get_slots[i];
        slot.batch->responses_[slot.req] =
            shard.get_out[i] ? Response{Status::kOk, *shard.get_out[i]}
                             : Response{Status::kNotFound, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (!shard.dead.load(std::memory_order_relaxed) && !shard.put_keys.empty()) {
    try {
      shard.map->put_batch(shard.put_keys, shard.put_vals);
      for (const SlotRef& slot : shard.put_slots) {
        slot.batch->responses_[slot.req] = Response{Status::kOk, 0};
      }
    } catch (const MapDegradedError&) {
      // The shard stays up: reads are unaffected and the map retries its
      // rebuild with backoff. A prefix of the window may have landed, so
      // kDegraded means "retry later" (at-least-once), never data loss.
      for (const SlotRef& slot : shard.put_slots) {
        slot.batch->responses_[slot.req] = Response{Status::kDegraded, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (!shard.dead.load(std::memory_order_relaxed) && !shard.erase_keys.empty()) {
    shard.erase_hits.assign(shard.erase_keys.size(), 0);
    try {
      shard.map->erase_batch(shard.erase_keys, shard.erase_hits);
      for (usize i = 0; i < shard.erase_slots.size(); ++i) {
        const SlotRef slot = shard.erase_slots[i];
        slot.batch->responses_[slot.req] =
            Response{shard.erase_hits[i] ? Status::kOk : Status::kNotFound, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (shard.dead.load(std::memory_order_relaxed)) {
    // The crash interrupted this visit: every response still kPending —
    // including ops "before" the dying call whose scatter-back never ran
    // — answers kShardDown.
    for (const WorkItem& item : shard.visit) {
      for (u32 i = 0; i < item.count; ++i) {
        const u32 r = item.batch->order_[item.begin + i];
        if (item.batch->responses_[r].status == Status::kPending) {
          item.batch->responses_[r] = Response{Status::kShardDown, 0};
        }
      }
    }
  }
}

void ShardServer::serve_visit_naive(Shard& shard) {
  for (const WorkItem& item : shard.visit) {
    for (u32 i = 0; i < item.count; ++i) {
      const u32 r = item.batch->order_[item.begin + i];
      const Request& rq = item.batch->requests[r];
      Response& resp = item.batch->responses_[r];
      if (shard.dead.load(std::memory_order_relaxed)) {
        resp = Response{Status::kShardDown, 0};
        continue;
      }
      try {
        switch (rq.op) {
          case Op::kGet: {
            const auto v = shard.map->get(rq.key);
            resp = v ? Response{Status::kOk, *v} : Response{Status::kNotFound, 0};
            break;
          }
          case Op::kPut:
            shard.map->put(rq.key, rq.value);
            resp = Response{Status::kOk, 0};
            break;
          case Op::kErase:
            resp = Response{shard.map->erase(rq.key) ? Status::kOk : Status::kNotFound, 0};
            break;
        }
      } catch (const MapDegradedError&) {
        resp = Response{Status::kDegraded, 0};
      } catch (const nvm::SimulatedCrash&) {
        kill_shard(shard);
        resp = Response{Status::kShardDown, 0};
      }
    }
  }
}

obs::Snapshot ShardServer::live_snapshot() const {
  obs::Snapshot s;
  s.source = "ShardServer.live";
  s.shards = nshards_;
  s.latency = obs::OpLatencySnapshot::from(recorder_);
  s.phases = ring_phases_.snapshot();
  for (u32 i = 0; i < nshards_; ++i) {
    const GroupHashMap* map = shards_[i]->map.get();
    if (map == nullptr) continue;
    const obs::LiveObs* live = map->live_obs();
    if (live == nullptr) continue;
    s.phases += live->phases.snapshot();
    const obs::MigrationGauges g = live->migration();
    s.migration.active += g.active;
    s.migration.cursor += g.cursor;
    s.migration.total_groups += g.total_groups;
  }
  return s;
}

obs::Snapshot ShardServer::snapshot() {
  GH_CHECK(!running());
  obs::Snapshot agg;
  agg.source = "ShardServer";
  agg.shards = nshards_;
  agg.phases = ring_phases_.snapshot();
  for (u32 s = 0; s < nshards_; ++s) {
    obs::Snapshot shard_snap = shards_[s]->map->snapshot();
    agg.absorb(shard_snap);
    obs::ShardBrief brief;
    brief.shard = s;
    brief.size = shard_snap.size;
    brief.capacity = shard_snap.capacity;
    brief.expansions = shard_snap.lifecycle.expansions;
    brief.degraded = shard_snap.lifecycle.degraded ||
                     shards_[s]->dead.load(std::memory_order_acquire);
    agg.per_shard.push_back(brief);
  }
  return agg;
}

}  // namespace gh::service
