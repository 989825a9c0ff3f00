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
//     (core/optimistic_read.hpp): snapshot the epoch (spinning out a
//     writer's section on an odd one), run the map's optimistic_probe
//     over its published ReadSnapshot with acquire loads, and validate
//     the epoch — retrying on a mismatch and falling back to the lock
//     after kMaxOptimisticAttempts failures, a section longer than
//     kSpinBeforeParkNs, or at once when the probe escalates, so writer
//     churn cannot starve them;
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
#include <utility>
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
/// ProbeKey + probe_key() and the static optimistic_probe() and
/// optimistic_probe_batch() (see
/// BasicGroupHashMap and PersistentStringMap).
template <class Map>
class BasicConcurrentGroupHashMap {
 public:
  using key_type = typename Map::key_type;
  using Options = typename Map::Options;
  using Table = typename Map::Table;

  /// Failed validations before a reader falls back to the shard lock.
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

  /// Batched lookup: keys are routed by shard; each shard's sub-batch
  /// resolves under ONE optimistic epoch validation (all its probes
  /// together — the same one-epoch argument as a single probe), retrying
  /// and finally falling back to the shard lock plus the map's
  /// prefetching get_batch. out[i] receives the result for keys[i].
  void get_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
    check_keys(keys);
    if (keys.empty()) return;
    const ShardRoute route = route_by_shard(keys);
    const std::vector<key_type> routed = route.gather(keys);
    std::vector<std::optional<u64>> routed_out(keys.size());
    std::vector<ProbeKey> probes;
    for (usize s = 0; s < shards_.size(); ++s) {
      const auto [begin, end] = route.range(s);
      if (begin == end) continue;
      shard_get_batch(*shards_[s], std::span(routed).subspan(begin, end - begin), probes,
                      std::span(routed_out).subspan(begin, end - begin));
    }
    for (usize o = 0; o < keys.size(); ++o) out[route.order[o]] = routed_out[o];
  }

  /// Batched insert-or-update: each shard's sub-batch runs under one
  /// write-lock acquisition through the shard map's fence-coalescing
  /// put_batch. A key always routes to the same shard and in-shard order
  /// follows batch order, so duplicate keys keep sequential last-wins
  /// semantics. Shards are taken free ones first (write_routed), so the
  /// batch is not atomic across shards: when a shard's map throws (a
  /// failed expansion), the shards applied before it keep their share,
  /// and which shards those are depends on which locks were free.
  void put_batch(std::span<const key_type> keys, std::span<const u64> values) {
    GH_CHECK_MSG(keys.size() == values.size(), "put_batch spans must have equal size");
    // Reject a bad key before any shard applies its share of the batch.
    check_keys(keys);
    if (keys.empty()) return;
    const ShardRoute route = route_by_shard(keys);
    const std::vector<key_type> routed_keys = route.gather(keys);
    const std::vector<u64> routed_vals = route.gather(values);
    write_routed(route, [&](ShardState& sh, usize begin, usize end) {
      sh.map.put_batch(std::span(routed_keys).subspan(begin, end - begin),
                       std::span(routed_vals).subspan(begin, end - begin));
    });
  }

  /// Batched erase with per-shard fence coalescing, shards taken as in
  /// put_batch (and as non-atomic across them). When `hits` is
  /// non-empty it must be keys.size() long; hits[i] is set to 1 if
  /// keys[i] was present.
  void erase_batch(std::span<const key_type> keys, std::span<u8> hits = {}) {
    GH_CHECK_MSG(hits.empty() || hits.size() == keys.size(),
                 "erase_batch hits span must match keys");
    check_keys(keys);
    if (keys.empty()) return;
    const ShardRoute route = route_by_shard(keys);
    const std::vector<key_type> routed_keys = route.gather(keys);
    std::vector<u8> routed_hits(hits.empty() ? 0 : keys.size(), 0);
    write_routed(route, [&](ShardState& sh, usize begin, usize end) {
      sh.map.erase_batch(std::span(routed_keys).subspan(begin, end - begin),
                         hits.empty() ? std::span<u8>{}
                                      : std::span(routed_hits).subspan(begin, end - begin));
    });
    if (hits.empty()) return;
    for (usize o = 0; o < keys.size(); ++o) hits[route.order[o]] = routed_hits[o];
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

  /// A batch's key indices sorted by shard with one counting sort: shard
  /// s's keys are order[offsets[s], offsets[s + 1]), in batch order.
  struct ShardRoute {
    std::vector<u32> order;
    std::vector<u32> offsets;

    [[nodiscard]] std::pair<usize, usize> range(usize s) const {
      return {offsets[s], offsets[s + 1]};
    }

    /// `items` in routed order, so each shard's share is one subspan.
    template <class T>
    [[nodiscard]] std::vector<T> gather(std::span<const T> items) const {
      std::vector<T> out;
      out.reserve(order.size());
      for (const u32 i : order) out.push_back(items[i]);
      return out;
    }
  };

  [[nodiscard]] ShardRoute route_by_shard(std::span<const key_type> keys) const {
    ShardRoute route;
    std::vector<u32> shard_of_key(keys.size());
    route.offsets.assign(shards_.size() + 1, 0);
    for (usize i = 0; i < keys.size(); ++i) {
      shard_of_key[i] = static_cast<u32>(shard_index(keys[i]));
      route.offsets[shard_of_key[i] + 1]++;
    }
    for (usize s = 0; s < shards_.size(); ++s) route.offsets[s + 1] += route.offsets[s];
    std::vector<u32> cursor(route.offsets.begin(), route.offsets.end() - 1);
    route.order.resize(keys.size());
    for (usize i = 0; i < keys.size(); ++i) {
      route.order[cursor[shard_of_key[i]]++] = static_cast<u32>(i);
    }
    return route;
  }

  /// Run `apply(shard, begin, end)` for each shard the route touches,
  /// under that shard's write lock, then republish. Shards whose lock is
  /// free are applied first, in shard order; busy ones are deferred to a
  /// second, blocking pass. Concurrent batches then work on different
  /// shards instead of queueing behind one another from shard 0 up. A
  /// thread holds one shard lock at a time, and a throw from `apply`
  /// leaves the later shards untouched.
  template <class Apply>
  void write_routed(const ShardRoute& route, Apply&& apply) {
    std::vector<u32> busy;
    for (usize s = 0; s < shards_.size(); ++s) {
      const auto [begin, end] = route.range(s);
      if (begin == end) continue;
      ShardState& sh = *shards_[s];
      if (!sh.lock.try_write_lock()) {
        busy.push_back(static_cast<u32>(s));
        continue;
      }
      SeqLockWriteGuard guard(sh.lock, std::adopt_lock);
      apply(sh, begin, end);
      sh.republish_if_moved();
    }
    for (const u32 s : busy) {
      const auto [begin, end] = route.range(s);
      ShardState& sh = *shards_[s];
      SeqLockWriteGuard guard(sh.lock, &sh.contention);
      apply(sh, begin, end);
      sh.republish_if_moved();
    }
  }

  /// One shard's share of get_batch: the whole sub-batch probes under a
  /// single epoch check, through the map's batched probe (the staged
  /// kernel for the inline maps). Validation failure retries the
  /// sub-batch, then falls back to the lock (where the shard map's
  /// staged get_batch still applies).
  void shard_get_batch(ShardState& sh, std::span<const key_type> keys,
                       std::vector<ProbeKey>& probes, std::span<std::optional<u64>> out) {
    probes.clear();
    for (const key_type& key : keys) probes.push_back(Map::probe_key(key));
    if (core::optimistic_read(sh.lock, sh.contention, max_optimistic_attempts_, [&] {
          return Map::optimistic_probe_batch(*sh.snapshot.load(std::memory_order_acquire),
                                             probes, out);
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
