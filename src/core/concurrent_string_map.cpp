#include "core/concurrent_string_map.hpp"

#include <algorithm>
#include <cstring>

#include "core/optimistic_read.hpp"
#include "hash/hash_functions.hpp"
#include "util/assert.hpp"

namespace gh {
namespace {

/// Arena record layout (see string_map.cpp): value | key_len | key bytes.
constexpr u64 kRecordHeaderBytes = 2 * sizeof(u64);

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
  auto initial = std::make_unique<Snapshot>(map.read_snapshot());
  snapshot.store(initial.get(), std::memory_order_release);
  snapshots.push_back(std::move(initial));
}

void ConcurrentStringMap::ShardState::republish_snapshot_if_moved() {
  const Snapshot fresh = map.read_snapshot();
  const Snapshot* current = snapshot.load(std::memory_order_relaxed);
  if (current->tab1 == fresh.tab1 && current->arena_data == fresh.arena_data) return;
  auto next = std::make_unique<Snapshot>(fresh);
  snapshot.store(next.get(), std::memory_order_release);
  snapshots.push_back(std::move(next));
}

ConcurrentStringMap::ConcurrentStringMap(const ConcurrentStringMapOptions& options)
    : mode_(options.lock_mode) {
  GH_CHECK_MSG(is_pow2(options.shards), "shard count must be a power of two");
  StringMapOptions per_shard = options.shard_options;
  per_shard.initial_cells =
      std::max<u64>((options.shard_options.initial_cells + options.shards - 1) /
                        options.shards,
                    64);
  per_shard.retain_retired_regions = true;
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
  core::TableReadView<hash::Cell32> view;
  view.tab1 = snap.tab1;
  view.tab2 = snap.tab2;
  view.mask = snap.mask;
  view.group_size = snap.group_size;
  view.hash = hash::SeededHash(snap.seed);
  view.tags = snap.tags;
  view.tags1 = snap.tags1;
  view.tags2 = snap.tags2;
  const auto offset = core::optimistic_find(view, fp);
  if (!offset.has_value()) {
    out = std::nullopt;  // absent (trustworthy iff the epoch validates)
    return true;
  }
  // A torn/stale cell can surface a garbage offset: never dereference
  // outside the snapshot's arena window.
  if (*offset + kRecordHeaderBytes > snap.arena_capacity) return false;
  const auto* record = reinterpret_cast<const u64*>(snap.arena_data + *offset);
  const u64 value = core::atomic_load_acquire(record[0]);
  const u64 key_len = core::atomic_load_acquire(record[1]);
  if (key_len != key.size()) return false;  // collision or torn — escalate
  if (*offset + kRecordHeaderBytes + key_len > snap.arena_capacity) return false;
  // Plain reads, race-free: the offset came from an acquire-loaded cell
  // word released AFTER these bytes were written (DirectPM), and
  // committed records are immutable except their value word.
  if (std::memcmp(snap.arena_data + *offset + kRecordHeaderBytes, key.data(),
                  key_len) != 0) {
    return false;
  }
  out = value;
  return true;
}

std::optional<u64> ConcurrentStringMap::get(std::string_view key) {
  ShardState& sh = *shards_[shard_of(key)];
  if (mode_ == LockMode::kOptimistic && key.size() <= kMaxOptimisticKeyBytes) {
    const Key128 fp = PersistentStringMap::fingerprint(key);
    u64 retries = 0;
    for (u32 attempt = 0; attempt < max_optimistic_attempts_; ++attempt) {
      const u64 epoch = sh.lock.read_begin();
      if (!SeqLock::epoch_stable(epoch)) {
        ++retries;
        cpu_relax();
        continue;
      }
      const Snapshot* snap = sh.snapshot.load(std::memory_order_acquire);
      std::optional<u64> result;
      const bool conclusive = optimistic_probe(*snap, key, fp, result);
      if (sh.lock.read_validate(epoch) && conclusive) {
        if (retries != 0) sh.contention.read_retries += retries;
        return result;
      }
      // Inconclusive-but-valid means a genuine key/fingerprint anomaly:
      // let the locked path re-check and report it.
      if (conclusive) ++retries;
      else break;
    }
    sh.contention.read_retries += retries;
    sh.contention.read_fallbacks += 1;
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
    bool optimistic_eligible = mode_ == LockMode::kOptimistic;
    for (const u32 i : buckets[s]) {
      sub_keys.push_back(keys[i]);
      if (keys[i].size() > kMaxOptimisticKeyBytes) optimistic_eligible = false;
    }
    sub_out.assign(sub_keys.size(), std::nullopt);
    bool resolved = false;
    if (optimistic_eligible) {
      sub_fps.clear();
      for (const auto k : sub_keys) sub_fps.push_back(PersistentStringMap::fingerprint(k));
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
        for (usize w = 0; w < sub_keys.size() && conclusive; ++w) {
          conclusive = optimistic_probe(*snap, sub_keys[w], sub_fps[w], sub_out[w]);
        }
        if (sh.lock.read_validate(epoch) && conclusive) {
          if (retries != 0) sh.contention.read_retries += retries;
          resolved = true;
          break;
        }
        if (conclusive) {
          ++retries;
        } else {
          break;  // genuine anomaly: let the locked path re-check and report
        }
      }
      if (!resolved) {
        sh.contention.read_retries += retries;
        sh.contention.read_fallbacks += 1;
      }
    }
    if (!resolved) {
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
  return sh.map.erase(key);
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
