#include "core/concurrent_string_map.hpp"

#include <algorithm>
#include <cstring>

#include "core/optimistic_read.hpp"
#include "hash/hash_functions.hpp"
#include "util/assert.hpp"

namespace gh {
namespace {

constexpr u64 kRecordHeaderBytes = ArenaPayload::kRecordHeaderBytes;

/// Shard routing must be independent of the in-table fingerprint hash:
/// FNV-1a over the key bytes with a distinct basis.
usize shard_hash(std::string_view key) {
  u64 h = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<usize>(hash::fmix64(h));
}

}  // namespace

ConcurrentStringMap::ShardState::ShardState(const StringMapOptions& options)
    : map(PersistentStringMap::create_in_memory(options)) {
  published_version = map.structure_version();
  auto initial = std::make_unique<Snapshot>(map.read_snapshot());
  snapshot.store(initial.get(), std::memory_order_release);
  snapshots.push_back(std::move(initial));
}

void ConcurrentStringMap::ShardState::republish_snapshot_if_moved() {
  if (map.structure_version() == published_version) return;
  published_version = map.structure_version();
  auto next = std::make_unique<Snapshot>(map.read_snapshot());
  snapshot.store(next.get(), std::memory_order_release);
  snapshots.push_back(std::move(next));
}

ConcurrentStringMap::ConcurrentStringMap(const ConcurrentStringMapOptions& options)
    : mode_(options.lock_mode) {
  GH_CHECK_MSG(is_pow2(options.shards), "shard count must be a power of two");
  StringMapOptions per_shard = options.shard_options;
  per_shard.map.initial_cells = std::max<u64>(
      (options.shard_options.map.initial_cells + options.shards - 1) / options.shards, 64);
  per_shard.map.retain_retired_regions = true;
  shards_.reserve(options.shards);
  for (usize i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>(per_shard));
  }
}

usize ConcurrentStringMap::shard_of(std::string_view key) const {
  return shard_hash(key) & (shards_.size() - 1);
}

bool ConcurrentStringMap::optimistic_probe(const Snapshot& snap, std::string_view key,
                                           const Key128& fp, std::optional<u64>& out) {
  // New-then-old, as core::optimistic_find, but the hit's table names
  // the arena its record lives in.
  const core::TableReadView<hash::Cell32>& v = snap.view;
  const u64 h = v.hash(fp);
  auto offset = core::optimistic_probe(v.tab1, v.tab2, v.mask, v.group_size, v.tags1,
                                       v.tags2, h, fp);
  PersistentStringMap::ArenaWindow arena = snap.arena;
  if (!offset && v.old_tab1 != nullptr) {
    offset = core::optimistic_probe(v.old_tab1, v.old_tab2, v.old_mask, v.old_group_size,
                                    v.old_tags1, v.old_tags2, h, fp);
    arena = snap.old_arena;
  }
  if (!offset.has_value()) {
    out = std::nullopt;  // absent (trustworthy iff the epoch validates)
    return true;
  }
  // A torn/stale cell can surface a garbage offset: never dereference
  // outside the snapshot's arena window.
  if (*offset + kRecordHeaderBytes > arena.capacity) return false;
  const auto* record = reinterpret_cast<const u64*>(arena.data + *offset);
  const u64 value = core::atomic_load_acquire(record[0]);
  const u64 key_len = core::atomic_load_acquire(record[1]);
  if (key_len != key.size()) return false;  // collision or torn — escalate
  if (*offset + kRecordHeaderBytes + key_len > arena.capacity) return false;
  // Plain reads, race-free: the offset came from an acquire-loaded cell
  // word released AFTER these bytes were written (DirectPM), and
  // committed records are immutable except their value word.
  if (std::memcmp(arena.data + *offset + kRecordHeaderBytes, key.data(), key_len) != 0) {
    return false;
  }
  out = value;
  return true;
}

bool ConcurrentStringMap::optimistic_get(ShardState& sh,
                                         std::span<const std::string_view> keys,
                                         std::span<const Key128> fps,
                                         std::span<std::optional<u64>> out) {
  u64 retries = 0;
  for (u32 attempt = 0; attempt < max_optimistic_attempts_; ++attempt) {
    const u64 epoch = sh.lock.read_begin();
    if (!SeqLock::epoch_stable(epoch)) {
      ++retries;
      cpu_relax();
      continue;
    }
    const Snapshot* snap = sh.snapshot.load(std::memory_order_acquire);
    bool conclusive = true;
    for (usize w = 0; w < keys.size() && conclusive; ++w) {
      conclusive = optimistic_probe(*snap, keys[w], fps[w], out[w]);
    }
    if (sh.lock.read_validate(epoch) && conclusive) {
      if (retries != 0) sh.contention.read_retries += retries;
      return true;
    }
    // Inconclusive-but-valid means a genuine key/fingerprint anomaly:
    // let the locked path re-check and report it.
    if (!conclusive) break;
    ++retries;
  }
  sh.contention.read_retries += retries;
  sh.contention.read_fallbacks += 1;
  return false;
}

std::optional<u64> ConcurrentStringMap::get(std::string_view key) {
  ShardState& sh = *shards_[shard_of(key)];
  if (mode_ == LockMode::kOptimistic && key.size() <= kMaxOptimisticKeyBytes) {
    const Key128 fp = PersistentStringMap::fingerprint(key);
    std::optional<u64> out;
    if (optimistic_get(sh, {&key, 1}, {&fp, 1}, {&out, 1})) return out;
  }
  SeqLockReadGuard guard(sh.lock);
  return sh.map.get(key);
}

void ConcurrentStringMap::get_batch(std::span<const std::string_view> keys,
                                    std::span<std::optional<u64>> out) {
  GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
  if (keys.empty()) return;
  std::vector<std::vector<u32>> buckets(shards_.size());
  for (usize i = 0; i < keys.size(); ++i) {
    buckets[shard_of(keys[i])].push_back(static_cast<u32>(i));
  }
  std::vector<std::string_view> sub_keys;
  std::vector<Key128> sub_fps;
  std::vector<std::optional<u64>> sub_out;
  for (usize s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    ShardState& sh = *shards_[s];
    sub_keys.clear();
    sub_fps.clear();
    bool optimistic = mode_ == LockMode::kOptimistic;
    for (const u32 i : buckets[s]) {
      sub_keys.push_back(keys[i]);
      optimistic = optimistic && keys[i].size() <= kMaxOptimisticKeyBytes;
    }
    if (optimistic) {
      for (const auto k : sub_keys) sub_fps.push_back(PersistentStringMap::fingerprint(k));
    }
    sub_out.assign(sub_keys.size(), std::nullopt);
    if (!optimistic || !optimistic_get(sh, sub_keys, sub_fps, sub_out)) {
      SeqLockReadGuard guard(sh.lock);
      sh.map.get_batch(sub_keys, sub_out);
    }
    for (usize w = 0; w < buckets[s].size(); ++w) out[buckets[s][w]] = sub_out[w];
  }
}

void ConcurrentStringMap::put(std::string_view key, u64 value) {
  ShardState& sh = *shards_[shard_of(key)];
  SeqLockWriteGuard guard(sh.lock, &sh.contention);
  sh.map.put(key, value);
  sh.republish_snapshot_if_moved();
}

bool ConcurrentStringMap::erase(std::string_view key) {
  ShardState& sh = *shards_[shard_of(key)];
  SeqLockWriteGuard guard(sh.lock, &sh.contention);
  // Help-along migration means any write can restructure the shard.
  const bool hit = sh.map.erase(key);
  sh.republish_snapshot_if_moved();
  return hit;
}

u64 ConcurrentStringMap::size() {
  u64 total = 0;
  for (auto& sh : shards_) {
    SeqLockReadGuard guard(sh->lock);
    total += sh->map.size();
  }
  return total;
}

obs::Snapshot ConcurrentStringMap::snapshot() {
  obs::Snapshot total;
  total.source = "ConcurrentStringMap";
  total.shards = shards_.size();
  for (usize i = 0; i < shards_.size(); ++i) {
    ShardState& sh = *shards_[i];
    SeqLockReadGuard guard(sh.lock);
    obs::Snapshot s = sh.map.snapshot();
    s.contention = obs::ContentionSnapshot::from(sh.contention);
    total.per_shard.push_back(obs::ShardBrief{i, s.size, s.capacity, s.contention,
                                              s.lifecycle.compactions,
                                              s.lifecycle.degraded});
    total.absorb(s);
  }
  return total;
}

}  // namespace gh
