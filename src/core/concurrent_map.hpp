// BasicConcurrentGroupHashMap — the thread-safe sharded wrapper over a
// durable map, with optimistic lock-free reads: ConcurrentGroupHashMap
// and ConcurrentGroupHashMapWide over the inline maps,
// ConcurrentStringMap over PersistentStringMap.
//
// Keys are routed to one of N power-of-two shards by an independent hash
// (hash::shard_of, the shard service's route too); each shard is a
// complete in-memory map, so per-shard recovery/resizing is unchanged
// and the paper's consistency argument holds verbatim: every shard
// commits with the same 8-byte atomic protocol.
//
// Concurrency (this layer's contribution):
//   * writers (put/erase and their batches) take the shard's seqlock
//     exclusively; the epoch goes odd around mutation + persist;
//   * readers (get) run LOCK-FREE through core::optimistic_read()
//     (core/optimistic_read.hpp): snapshot the epoch, run the map's
//     optimistic_probe over its published ReadSnapshot with acquire
//     loads, and validate the epoch — retrying on a mismatch and falling
//     back to the lock after kMaxOptimisticAttempts failures (or at once
//     when the probe escalates), so writer churn cannot starve them;
//   * a resize publishes a fresh snapshot (the map's read_snapshot(),
//     dual while a migration drains) and retires — never unmaps — the
//     old one and its region, so a stale reader touches only mapped
//     memory and is then rejected by validation.
//
// Per-shard contention counters (read retries, fallback acquisitions,
// writer waits) are exact and surfaced via snapshot() (aggregate and
// per_shard) and the inspect machinery (core/inspect.hpp: inspect_shards()).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "hash/hash_functions.hpp"
#include "util/assert.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh {

/// `Map` is a durable map type that supplies, besides its get/put API,
/// the lock-free read hooks: Options, ReadSnapshot + read_snapshot(),
/// ProbeKey + probe_key() and the static optimistic_probe() (see
/// BasicGroupHashMap and PersistentStringMap).
template <class Map>
class BasicConcurrentGroupHashMap {
 public:
  using key_type = typename Map::key_type;
  using Options = typename Map::Options;
  using Table = typename Map::Table;

  /// Optimistic attempts before a reader falls back to the shard lock.
  static constexpr u32 kMaxOptimisticAttempts = 8;

  /// In-memory concurrent map with `shards` (power of two) shards. The
  /// total cell budget (the map options' initial_cells) is split across
  /// shards with a ceiling divide, so the summed capacity is never below
  /// the request.
  explicit BasicConcurrentGroupHashMap(usize shards = 16, const Options& options = {}) {
    GH_CHECK_MSG(is_pow2(shards), "shard count must be a power of two");
    Options per_shard = options;
    MapOptions& m = map_options(per_shard);
    m.initial_cells = std::max<u64>((m.initial_cells + shards - 1) / shards, 64);
    m.retain_retired_regions = true;
    shards_.reserve(shards);
    for (usize i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<ShardState>(per_shard));
    }
  }

  void put(const key_type& key, u64 value) {
    ShardState& sh = shard(key);
    SeqLockWriteGuard guard(sh.lock, &sh.contention);
    sh.map.put(key, value);
    sh.republish_if_moved();
  }

  [[nodiscard]] std::optional<u64> get(const key_type& key) {
    check_keys({&key, 1});
    ShardState& sh = shard(key);
    const auto probe_key = Map::probe_key(key);
    std::optional<u64> out;
    if (core::optimistic_read(sh.lock, sh.contention, max_optimistic_attempts_, [&] {
          return Map::optimistic_probe(*sh.snapshot.load(std::memory_order_acquire),
                                       probe_key, out);
        })) {
      return out;
    }
    SeqLockReadGuard guard(sh.lock);
    return sh.map.get(key);
  }

  bool erase(const key_type& key) {
    check_keys({&key, 1});
    ShardState& sh = shard(key);
    SeqLockWriteGuard guard(sh.lock, &sh.contention);
    // Help-along migration means ANY mutating op can restructure the
    // shard (start, drain, or finalize a resize), so every write path
    // republishes, not just put.
    const bool hit = sh.map.erase(key);
    sh.republish_if_moved();
    return hit;
  }

  /// Batched lookup: keys are bucketed by shard; each shard's sub-batch
  /// resolves under ONE optimistic epoch validation (all its probes
  /// together — the same one-epoch argument as a single probe), retrying
  /// and finally falling back to the shard lock plus the map's
  /// prefetching get_batch. out[i] receives the result for keys[i].
  void get_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
    check_keys(keys);
    if (keys.empty()) return;
    std::vector<std::vector<u32>> buckets = bucket_by_shard(keys);
    std::vector<key_type> sub_keys;
    std::vector<ProbeKey> sub_probes;
    std::vector<std::optional<u64>> sub_out;
    for (usize s = 0; s < shards_.size(); ++s) {
      if (buckets[s].empty()) continue;
      sub_keys.clear();
      for (const u32 i : buckets[s]) sub_keys.push_back(keys[i]);
      sub_out.assign(sub_keys.size(), std::nullopt);
      shard_get_batch(*shards_[s], sub_keys, sub_probes, sub_out);
      for (usize w = 0; w < buckets[s].size(); ++w) out[buckets[s][w]] = sub_out[w];
    }
  }

  /// Batched insert-or-update: each shard's sub-batch runs under one
  /// write-lock acquisition through the shard map's fence-coalescing
  /// put_batch. A key always routes to the same shard and in-shard order
  /// follows batch order, so duplicate keys keep sequential last-wins
  /// semantics.
  void put_batch(std::span<const key_type> keys, std::span<const u64> values) {
    GH_CHECK_MSG(keys.size() == values.size(), "put_batch spans must have equal size");
    // Reject a bad key before any shard applies its share of the batch.
    check_keys(keys);
    if (keys.empty()) return;
    std::vector<std::vector<u32>> buckets = bucket_by_shard(keys);
    std::vector<key_type> sub_keys;
    std::vector<u64> sub_vals;
    for (usize s = 0; s < shards_.size(); ++s) {
      if (buckets[s].empty()) continue;
      sub_keys.clear();
      sub_vals.clear();
      for (const u32 i : buckets[s]) {
        sub_keys.push_back(keys[i]);
        sub_vals.push_back(values[i]);
      }
      ShardState& sh = *shards_[s];
      SeqLockWriteGuard guard(sh.lock, &sh.contention);
      sh.map.put_batch(sub_keys, sub_vals);
      sh.republish_if_moved();
    }
  }

  /// Batched erase with per-shard fence coalescing. When `hits` is
  /// non-empty it must be keys.size() long; hits[i] is set to 1 if
  /// keys[i] was present.
  void erase_batch(std::span<const key_type> keys, std::span<u8> hits = {}) {
    GH_CHECK_MSG(hits.empty() || hits.size() == keys.size(),
                 "erase_batch hits span must match keys");
    check_keys(keys);
    if (keys.empty()) return;
    std::vector<std::vector<u32>> buckets = bucket_by_shard(keys);
    std::vector<key_type> sub_keys;
    std::vector<u8> sub_hits;
    for (usize s = 0; s < shards_.size(); ++s) {
      if (buckets[s].empty()) continue;
      sub_keys.clear();
      for (const u32 i : buckets[s]) sub_keys.push_back(keys[i]);
      if (!hits.empty()) sub_hits.assign(sub_keys.size(), 0);
      ShardState& sh = *shards_[s];
      SeqLockWriteGuard guard(sh.lock, &sh.contention);
      sh.map.erase_batch(sub_keys, hits.empty() ? std::span<u8>{} : std::span<u8>(sub_hits));
      sh.republish_if_moved();
      if (!hits.empty()) {
        for (usize w = 0; w < buckets[s].size(); ++w) hits[buckets[s][w]] = sub_hits[w];
      }
    }
  }

  [[nodiscard]] u64 size() {
    u64 total = 0;
    for (auto& sh : shards_) {
      SeqLockReadGuard guard(sh->lock);
      total += sh->map.size();
    }
    return total;
  }

  /// Summed cell capacity across shards (≥ the requested initial_cells
  /// rounded up per shard; grows with expansion).
  [[nodiscard]] u64 capacity() {
    u64 total = 0;
    for (auto& sh : shards_) {
      SeqLockReadGuard guard(sh->lock);
      total += sh->map.capacity();
    }
    return total;
  }

  [[nodiscard]] usize shard_count() const { return shards_.size(); }

  /// Shard a key routes to (tests target one shard's lock with this).
  [[nodiscard]] usize shard_index(const key_type& key) const {
    return hash::shard_of(key, shards_.size());
  }

  /// One unified stats sample over all shards: the aggregate persist /
  /// table-op / scrub / contention / lifecycle counters, merged per-op
  /// latency histograms, and a per-shard brief (whose `expansions` counts
  /// the shard's resizes: expansions of an inline map, compactions of a
  /// string map). Each shard is sampled under its seqlock's read side,
  /// so a concurrent resize cannot tear the view and the carried-over
  /// counters survive intact.
  [[nodiscard]] obs::Snapshot snapshot() {
    obs::Snapshot total;
    total.source = kSource;
    total.shards = shards_.size();
    for (usize i = 0; i < shards_.size(); ++i) {
      ShardState& sh = *shards_[i];
      SeqLockReadGuard guard(sh.lock);
      obs::Snapshot s = sh.map.snapshot();
      s.contention = obs::ContentionSnapshot::from(sh.contention);
      total.per_shard.push_back(obs::ShardBrief{
          i, s.size, s.capacity, s.contention,
          s.lifecycle.expansions + s.lifecycle.compactions, s.lifecycle.degraded});
      total.absorb(s);
    }
    return total;
  }

  /// Run `fn(const Table&)` on one shard's table under its lock (readers
  /// excluded from writers only — safe for read-only scans; used by
  /// inspect_shards()).
  template <class Fn>
  auto with_shard_table(usize s, Fn&& fn) {
    SeqLockReadGuard guard(shards_[s]->lock);
    return fn(static_cast<const Table&>(shards_[s]->map.raw_table()));
  }

  /// Lowers (or raises) the optimistic attempt budget. 0 sends every read
  /// straight to the shard lock: the mutex baseline of bench/concurrency,
  /// and how tests make the lock fallback deterministic.
  void set_max_optimistic_attempts(u32 attempts) { max_optimistic_attempts_ = attempts; }

 private:
  using ProbeKey = typename Map::ProbeKey;
  using ReadSnapshot = typename Map::ReadSnapshot;

  static constexpr const char* kSource =
      std::is_same_v<Map, GroupHashMap>       ? "ConcurrentGroupHashMap"
      : std::is_same_v<Map, GroupHashMapWide> ? "ConcurrentGroupHashMapWide"
                                              : "ConcurrentStringMap";

  static MapOptions& map_options(Options& options) {
    if constexpr (std::is_same_v<Options, MapOptions>) {
      return options;
    } else {
      return options.map;
    }
  }

  struct ShardState {
    explicit ShardState(const Options& options) : map(Map::create_in_memory(options)) {
      republish_if_moved();
    }

    /// Publish a fresh read snapshot if the probe geometry changed (a
    /// resize start, resume or finalize — tracked by the
    /// map's structure_version). Called after every mutation, with the
    /// shard seqlock held exclusively. Old snapshots are retired, not
    /// freed — a racing reader may still hold one, and the map's retained
    /// regions keep the cells and records it points at mapped.
    void republish_if_moved() {
      if (map.structure_version() == published_version) return;
      published_version = map.structure_version();
      auto fresh = std::make_unique<ReadSnapshot>(map.read_snapshot());
      snapshot.store(fresh.get(), std::memory_order_release);
      snapshots.push_back(std::move(fresh));
    }

    Map map;
    SeqLock lock;
    std::atomic<const ReadSnapshot*> snapshot{nullptr};
    std::vector<std::unique_ptr<ReadSnapshot>> snapshots;  ///< current + retired
    LockContention contention;
    u64 published_version = ~u64{0};  ///< map.structure_version() of `snapshot`
  };

  ShardState& shard(const key_type& key) { return *shards_[shard_index(key)]; }

  /// The map's key check (BasicGroupHashMap::check_keys), before any
  /// shard is read or written; maps without one take every key.
  static void check_keys(std::span<const key_type> keys) {
    if constexpr (requires { Map::check_keys(keys); }) Map::check_keys(keys);
  }

  [[nodiscard]] std::vector<std::vector<u32>> bucket_by_shard(
      std::span<const key_type> keys) const {
    std::vector<std::vector<u32>> buckets(shards_.size());
    for (usize i = 0; i < keys.size(); ++i) {
      buckets[shard_index(keys[i])].push_back(static_cast<u32>(i));
    }
    return buckets;
  }

  /// One shard's share of get_batch: the whole sub-batch probes under a
  /// single epoch check. Validation failure retries the sub-batch, then
  /// falls back to the lock (where the shard map's prefetching get_batch
  /// still applies).
  void shard_get_batch(ShardState& sh, std::span<const key_type> keys,
                       std::vector<ProbeKey>& probes, std::span<std::optional<u64>> out) {
    probes.clear();
    for (const key_type& key : keys) probes.push_back(Map::probe_key(key));
    if (core::optimistic_read(sh.lock, sh.contention, max_optimistic_attempts_, [&] {
          const ReadSnapshot& snap = *sh.snapshot.load(std::memory_order_acquire);
          for (usize i = 0; i < probes.size(); ++i) {
            if (!Map::optimistic_probe(snap, probes[i], out[i])) return false;
          }
          return true;
        })) {
      return;
    }
    SeqLockReadGuard guard(sh.lock);
    sh.map.get_batch(keys, out);
  }

  std::vector<std::unique_ptr<ShardState>> shards_;
  u32 max_optimistic_attempts_ = kMaxOptimisticAttempts;
};

using ConcurrentGroupHashMap = BasicConcurrentGroupHashMap<GroupHashMap>;
using ConcurrentGroupHashMapWide = BasicConcurrentGroupHashMap<GroupHashMapWide>;
/// String keys: each shard a PersistentStringMap; a get fingerprints its
/// key before the epoch window and resolves the record lock-free.
using ConcurrentStringMap = BasicConcurrentGroupHashMap<PersistentStringMap>;

}  // namespace gh
