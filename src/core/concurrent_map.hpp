// ConcurrentGroupHashMap — thread-safe sharded wrapper over GroupHashMap
// with optimistic lock-free reads.
//
// Keys are routed to one of N power-of-two shards by an independent hash;
// each shard is a complete GroupHashMap, so per-shard recovery/expansion
// is unchanged and the paper's consistency argument holds verbatim: every
// shard commits with the same 8-byte atomic protocol.
//
// Concurrency (this layer's contribution):
//   * writers (put/erase) take the shard's seqlock exclusively; the
//     epoch goes odd around mutation + persist;
//   * readers (get) run LOCK-FREE: snapshot the epoch, probe through an
//     immutable TableReadView with acquire loads, and validate the epoch
//     — retrying on a mismatch and falling back to the lock after
//     kMaxOptimisticAttempts failures so writer churn cannot starve them
//     (see util/seqlock.hpp and core/optimistic_read.hpp);
//   * expansion publishes a fresh view and retires (never unmaps) the old
//     region, so a stale reader touches only mapped memory and is then
//     rejected by validation.
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
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/optimistic_read.hpp"
#include "hash/hash_functions.hpp"
#include "util/assert.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh {

template <class Cell>
class BasicConcurrentGroupHashMap {
 public:
  using key_type = typename Cell::key_type;
  using Shard = BasicGroupHashMap<Cell>;
  using Table = typename Shard::Table;
  using ReadView = core::TableReadView<Cell>;

  /// Optimistic attempts before a reader falls back to the shard lock.
  static constexpr u32 kMaxOptimisticAttempts = 8;

  /// In-memory concurrent map with `shards` (power of two) shards. The
  /// total cell budget options.initial_cells is split across shards with
  /// a ceiling divide, so the summed capacity is never below the request.
  explicit BasicConcurrentGroupHashMap(usize shards = 16, const MapOptions& options = {},
                                       LockMode mode = LockMode::kOptimistic)
      : mode_(mode) {
    GH_CHECK_MSG(is_pow2(shards), "shard count must be a power of two");
    MapOptions per_shard = options;
    per_shard.initial_cells =
        std::max<u64>((options.initial_cells + shards - 1) / shards, 64);
    per_shard.retain_retired_regions = true;
    shards_.reserve(shards);
    for (usize i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<ShardState>(per_shard));
    }
  }

  void put(const key_type& key, u64 value) {
    ShardState& sh = shard(key);
    SeqLockWriteGuard guard(sh.lock, &sh.contention);
    sh.map.put(key, value);
    sh.republish_view_if_moved();
  }

  [[nodiscard]] std::optional<u64> get(const key_type& key) {
    ShardState& sh = shard(key);
    if (mode_ == LockMode::kOptimistic) {
      u64 retries = 0;
      for (u32 attempt = 0; attempt < max_optimistic_attempts_; ++attempt) {
        const u64 epoch = sh.lock.read_begin();
        if (!SeqLock::epoch_stable(epoch)) {
          ++retries;
          cpu_relax();
          continue;
        }
        const ReadView* view = sh.view.load(std::memory_order_acquire);
        const auto result = core::optimistic_find(*view, key);
        if (sh.lock.read_validate(epoch)) {
          if (retries != 0) sh.contention.read_retries += retries;
          return result;
        }
        ++retries;
      }
      sh.contention.read_retries += retries;
      sh.contention.read_fallbacks += 1;
    }
    SeqLockReadGuard guard(sh.lock);
    return sh.map.get(key);
  }

  bool erase(const key_type& key) {
    ShardState& sh = shard(key);
    SeqLockWriteGuard guard(sh.lock, &sh.contention);
    // Help-along migration means ANY mutating op can restructure the
    // shard (start, drain, or finalize a resize), so every write path
    // republishes, not just put.
    const bool hit = sh.map.erase(key);
    sh.republish_view_if_moved();
    return hit;
  }

  /// Batched lookup: keys are bucketed by shard; each shard's sub-batch
  /// resolves under ONE optimistic epoch validation (all its tag scans
  /// and cell reads together — the same one-epoch argument as a single
  /// optimistic_find), retrying and finally falling back to the shard
  /// lock plus the map's prefetching get_batch. out[i] receives the
  /// result for keys[i].
  void get_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
    if (keys.empty()) return;
    std::vector<std::vector<u32>> buckets = bucket_by_shard(keys);
    std::vector<key_type> sub_keys;
    std::vector<std::optional<u64>> sub_out;
    for (usize s = 0; s < shards_.size(); ++s) {
      if (buckets[s].empty()) continue;
      sub_keys.clear();
      for (const u32 i : buckets[s]) sub_keys.push_back(keys[i]);
      sub_out.assign(sub_keys.size(), std::nullopt);
      shard_get_batch(*shards_[s], sub_keys, sub_out);
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
      sh.republish_view_if_moved();
    }
  }

  /// Batched erase with per-shard fence coalescing. When `hits` is
  /// non-empty it must be keys.size() long; hits[i] is set to 1 if
  /// keys[i] was present.
  void erase_batch(std::span<const key_type> keys, std::span<u8> hits = {}) {
    GH_CHECK_MSG(hits.empty() || hits.size() == keys.size(),
                 "erase_batch hits span must match keys");
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
      sh.republish_view_if_moved();
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
  [[nodiscard]] LockMode lock_mode() const { return mode_; }

  /// Shard a key routes to (tests target one shard's lock with this).
  [[nodiscard]] usize shard_index(const key_type& key) const { return shard_of(key); }

  /// One unified stats sample over all shards: the aggregate persist /
  /// table-op / scrub / contention / lifecycle counters, merged per-op
  /// latency histograms, and a per-shard brief. Each shard is sampled
  /// under its seqlock's read side, so a concurrent expansion cannot tear
  /// the view and the carried-over counters survive intact.
  [[nodiscard]] obs::Snapshot snapshot() {
    obs::Snapshot total;
    total.source = sizeof(Cell) == 16 ? "ConcurrentGroupHashMap" : "ConcurrentGroupHashMapWide";
    total.shards = shards_.size();
    for (usize i = 0; i < shards_.size(); ++i) {
      ShardState& sh = *shards_[i];
      SeqLockReadGuard guard(sh.lock);
      obs::Snapshot s = sh.map.snapshot();
      s.contention = obs::ContentionSnapshot::from(sh.contention);
      total.per_shard.push_back(obs::ShardBrief{i, s.size, s.capacity, s.contention,
                                                s.lifecycle.expansions,
                                                s.lifecycle.degraded});
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

  /// Tests only: lowers (or raises) the optimistic attempt budget; 0 sends
  /// every read straight to the lock fallback.
  void set_max_optimistic_attempts(u32 attempts) { max_optimistic_attempts_ = attempts; }

 private:
  struct ShardState {
    explicit ShardState(const MapOptions& options)
        : map(Shard::create_in_memory(options)) {
      auto initial = std::make_unique<ReadView>(ReadView::of(map.raw_table()));
      view.store(initial.get(), std::memory_order_release);
      views.push_back(std::move(initial));
    }

    /// After a mutation: if the probe geometry changed (a resize start,
    /// resume, finalize or emergency merge — tracked by the map's
    /// structure_version), publish a fresh view: dual (target + old
    /// table) while a migration runs, single otherwise. Old views are
    /// retired, not freed — a racing reader may still hold one, and the
    /// map's retained regions keep the cells it points at mapped. Called
    /// with the shard seqlock held exclusively.
    void republish_view_if_moved() {
      const u64 version = map.structure_version();
      if (version == published_version) return;
      const Table& table = map.raw_table();
      auto fresh = std::make_unique<ReadView>(
          map.migration_table() ? ReadView::dual(*map.migration_table(), table)
                                : ReadView::of(table));
      fresh->version = version;
      published_version = version;
      view.store(fresh.get(), std::memory_order_release);
      views.push_back(std::move(fresh));
    }

    Shard map;
    SeqLock lock;
    std::atomic<const ReadView*> view{nullptr};
    std::vector<std::unique_ptr<ReadView>> views;  ///< current + retired
    LockContention contention;
    u64 published_version = 0;  ///< map.structure_version() of `view`
  };

  ShardState& shard(const key_type& key) { return *shards_[shard_of(key)]; }

  [[nodiscard]] std::vector<std::vector<u32>> bucket_by_shard(
      std::span<const key_type> keys) const {
    std::vector<std::vector<u32>> buckets(shards_.size());
    for (usize i = 0; i < keys.size(); ++i) {
      buckets[shard_of(keys[i])].push_back(static_cast<u32>(i));
    }
    return buckets;
  }

  /// One shard's share of get_batch: the whole sub-batch probes under a
  /// single epoch check. Validation failure retries the sub-batch, then
  /// falls back to the lock (where the shard map's prefetching find_batch
  /// still applies).
  void shard_get_batch(ShardState& sh, std::span<const key_type> keys,
                       std::span<std::optional<u64>> out) {
    if (mode_ == LockMode::kOptimistic) {
      u64 retries = 0;
      for (u32 attempt = 0; attempt < max_optimistic_attempts_; ++attempt) {
        const u64 epoch = sh.lock.read_begin();
        if (!SeqLock::epoch_stable(epoch)) {
          ++retries;
          cpu_relax();
          continue;
        }
        const ReadView* view = sh.view.load(std::memory_order_acquire);
        for (usize i = 0; i < keys.size(); ++i) {
          out[i] = core::optimistic_find(*view, keys[i]);
        }
        if (sh.lock.read_validate(epoch)) {
          if (retries != 0) sh.contention.read_retries += retries;
          return;
        }
        ++retries;
      }
      sh.contention.read_retries += retries;
      sh.contention.read_fallbacks += 1;
    }
    SeqLockReadGuard guard(sh.lock);
    sh.map.get_batch(keys, out);
  }

  [[nodiscard]] usize shard_of(const key_type& key) const {
    // Shard routing must be independent of the in-table hash; use a
    // distinct fixed seed.
    return static_cast<usize>(hash::SeededHash(0xc3a5c85c97cb3127ull)(key)) &
           (shards_.size() - 1);
  }

  std::vector<std::unique_ptr<ShardState>> shards_;
  LockMode mode_;
  u32 max_optimistic_attempts_ = kMaxOptimisticAttempts;
};

using ConcurrentGroupHashMap = BasicConcurrentGroupHashMap<hash::Cell16>;
using ConcurrentGroupHashMapWide = BasicConcurrentGroupHashMap<hash::Cell32>;

}  // namespace gh
