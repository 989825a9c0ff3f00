// ConcurrentStringMap — thread-safe sharded wrapper over
// PersistentStringMap with optimistic lock-free reads.
//
// Keys route to one of N power-of-two shards by an independent hash of
// the key bytes; each shard is a complete in-memory PersistentStringMap
// (fingerprinted Cell32 table + append-only arena), so the paper's
// 8-byte-commit consistency argument is unchanged per shard.
//
// get() runs lock-free: under a seqlock epoch snapshot it probes the
// shard's Cell32 table by fingerprint (acquire loads), bounds-checks the
// record offset against the snapshot's arena window, reads the record's
// value word atomically and verifies the stored key bytes. The key-byte
// reads are plain but race-free: the offset was obtained through an
// acquire load of a cell word that DirectPM published with release
// ordering AFTER the record bytes were written, so happens-before covers
// them; a stale offset only ever lands in retired or committed (hence
// immutable) arena bytes. Any anomaly — failed epoch validation, offset
// or length out of bounds — retries, then falls back to the shard lock
// after kMaxOptimisticAttempts failures. Oversized keys
// (> kMaxOptimisticKeyBytes) skip the optimistic path entirely.
//
// A shard resizes (grows or compacts) through the core's migration, so
// the published ReadSnapshot follows the shard's structure_version()
// exactly as ConcurrentGroupHashMap's view does: dual (target, old table)
// while a migration drains, each table with its own arena window, and
// single otherwise. Retired regions stay mapped
// (MapOptions::retain_retired_regions), so a stale reader touches only
// mapped memory and is then rejected by validation.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/string_map.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh {

struct ConcurrentStringMapOptions {
  usize shards = 16;  ///< power of two
  StringMapOptions shard_options = {};
  LockMode lock_mode = LockMode::kOptimistic;
};

class ConcurrentStringMap {
 public:
  static constexpr u32 kMaxOptimisticAttempts = 8;
  /// Keys longer than this read through the lock (bounded stack copy on
  /// the optimistic path keeps validation cheap).
  static constexpr usize kMaxOptimisticKeyBytes = 512;

  explicit ConcurrentStringMap(const ConcurrentStringMapOptions& options = {});

  ConcurrentStringMap(const ConcurrentStringMap&) = delete;
  ConcurrentStringMap& operator=(const ConcurrentStringMap&) = delete;

  /// Insert or update. Throws on a detected fingerprint collision.
  void put(std::string_view key, u64 value);

  [[nodiscard]] std::optional<u64> get(std::string_view key);
  [[nodiscard]] bool contains(std::string_view key) { return get(key).has_value(); }
  bool erase(std::string_view key);

  /// Batched lookup: keys are bucketed by shard; each shard's sub-batch
  /// probes lock-free under ONE epoch validation, falling back to the
  /// shard lock (and the shard map's prefetching get_batch) on epoch
  /// churn, an oversized key, or a probe anomaly. out[i] receives the
  /// result for keys[i].
  void get_batch(std::span<const std::string_view> keys,
                 std::span<std::optional<u64>> out);

  [[nodiscard]] u64 size();
  [[nodiscard]] usize shard_count() const { return shards_.size(); }
  [[nodiscard]] LockMode lock_mode() const { return mode_; }
  [[nodiscard]] usize shard_index(std::string_view key) const { return shard_of(key); }

  /// One unified stats sample over all shards (see
  /// BasicConcurrentGroupHashMap::snapshot): aggregate counters, merged
  /// per-op latency histograms, and a per-shard brief. Each shard is
  /// sampled under its seqlock's read side, so a concurrent compaction
  /// cannot tear the view.
  [[nodiscard]] obs::Snapshot snapshot();

  /// Tests only: lowers (or raises) the optimistic attempt budget; 0 sends
  /// every read straight to the lock fallback.
  void set_max_optimistic_attempts(u32 attempts) { max_optimistic_attempts_ = attempts; }

 private:
  using Snapshot = PersistentStringMap::ReadSnapshot;

  struct ShardState {
    explicit ShardState(const StringMapOptions& options);
    /// After a mutation: publish a fresh snapshot when the map's
    /// structure_version moved. Old snapshots are retired, not freed — a
    /// racing reader may still hold one. Called under the write lock.
    void republish_snapshot_if_moved();

    PersistentStringMap map;
    SeqLock lock;
    std::atomic<const Snapshot*> snapshot{nullptr};
    std::vector<std::unique_ptr<Snapshot>> snapshots;  ///< current + retired
    LockContention contention;
    u64 published_version = 0;  ///< map.structure_version() of `snapshot`
  };

  [[nodiscard]] usize shard_of(std::string_view key) const;

  /// The lock-free read of one shard's keys: every probe under one
  /// epoch validation, retried up to the attempt budget. False when the
  /// caller must take the shard lock (contention counted).
  bool optimistic_get(ShardState& sh, std::span<const std::string_view> keys,
                      std::span<const Key128> fps, std::span<std::optional<u64>> out);

  /// One optimistic probe under an already-validated-stable epoch.
  /// Returns true when `out` holds a trustworthy-if-validated answer;
  /// false when the probe hit an anomaly (torn offset/length, key
  /// mismatch) and the caller must validate-and-escalate.
  static bool optimistic_probe(const Snapshot& snap, std::string_view key,
                               const Key128& fp, std::optional<u64>& out);

  std::vector<std::unique_ptr<ShardState>> shards_;
  LockMode mode_;
  u32 max_optimistic_attempts_ = kMaxOptimisticAttempts;
};

}  // namespace gh
