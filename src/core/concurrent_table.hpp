// ConcurrentGroupHashTable — fine-grained thread safety over ONE group
// hashing table (contrast with ConcurrentGroupHashMap, which shards into
// independent maps).
//
// The key observation: an operation on key k touches exactly its level-1
// cell and the matched level-2 group — both inside group g = index /
// group_size. Group-granular seqlock stripes therefore make the whole
// paper-structure concurrent without changing a single byte of its NVM
// layout or its commit protocol: writers serialize per group; readers of
// ANY group run lock-free, probing with acquire loads and validating the
// stripe's epoch (util/seqlock.hpp), falling back to the stripe lock
// after kMaxOptimisticAttempts failed validations. This replaces the
// earlier reader-writer locks: an uncontended shared_mutex read still
// costs two atomic RMWs on the lock word; a validated optimistic read
// costs none and its cacheline stays shared.
//
// The table never moves (no expansion at this layer), so a single
// immutable TableReadView taken at construction serves all readers — no
// view republication or region retirement is needed here.
//
// The global `count` is the one cross-group word; the table runs in
// CountMode::kRecoveryOnly, where it is an exact atomic (see
// util/counters.hpp) and the persistent copy is recomputed by recovery —
// which also removes the count cacheline as a cross-group flush hotspot
// (see ablation_wear).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/optimistic_read.hpp"
#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "obs/snapshot.hpp"
#include "util/assert.hpp"
#include "util/seqlock.hpp"
#include "util/types.hpp"

namespace gh {

template <class Cell>
class BasicConcurrentGroupHashTable {
 public:
  using key_type = typename Cell::key_type;
  using Table = hash::GroupHashTable<Cell, nvm::DirectPM>;
  using ReadView = core::TableReadView<Cell>;

  static constexpr u32 kMaxOptimisticAttempts = 8;

  struct Params {
    u64 total_cells = 1ull << 16;  ///< both levels; rounded to a power of two
    u32 group_size = 256;
    u64 seed = hash::kDefaultSeed1;
    u64 flush_latency_ns = 0;
    u32 lock_stripes = 1024;  ///< upper bound; clamped to the group count
    LockMode lock_mode = LockMode::kOptimistic;
  };

  explicit BasicConcurrentGroupHashTable(const Params& params)
      : pm_(nvm::PersistConfig{.flush_latency_ns = params.flush_latency_ns}),
        mode_(params.lock_mode) {
    u64 total = 16;
    while (total < params.total_cells) total <<= 1;
    const typename Table::Params table_params{
        .level_cells = total / 2,
        .group_size = static_cast<u32>(std::min<u64>(params.group_size, total / 2)),
        .seed = params.seed,
        .count_mode = hash::CountMode::kRecoveryOnly,
        .commit_order = hash::CommitOrder::kSameLine};
    region_ = nvm::NvmRegion::create_anonymous(Table::required_bytes(table_params));
    table_.emplace(pm_, region_.bytes().first(Table::required_bytes(table_params)),
                   table_params, /*format=*/true);
    const u64 groups = table_->level_cells() / table_->group_size();
    u64 stripes = 1;
    while (stripes < std::min<u64>(groups, params.lock_stripes)) stripes <<= 1;
    stripes_ = std::vector<Stripe>(stripes);
    stripe_mask_ = stripes - 1;
    hash_ = hash::SeededHash(table_->seed());
    view_ = ReadView::of(*table_);
  }

  bool insert(const key_type& key, u64 value) {
    Stripe& st = stripe_for(key);
    SeqLockWriteGuard guard(st.lock, &st.contention);
    return table_->insert(key, value);
  }

  [[nodiscard]] std::optional<u64> find(const key_type& key) {
    Stripe& st = stripe_for(key);
    std::optional<u64> out;
    if (mode_ == LockMode::kOptimistic &&
        core::optimistic_read(st.lock, st.contention, max_optimistic_attempts_, [&] {
          out = core::optimistic_find(view_, key);
          return true;
        })) {
      return out;
    }
    SeqLockReadGuard guard(st.lock);
    return table_->find(key);
  }

  /// Batched lookup: software-prefetches each upcoming key's level-1 cell
  /// and group tag bytes through the immutable view (safe without any
  /// lock — prefetching never reads), then resolves each key with its own
  /// stripe-validated find(); keys in one batch generally span many
  /// stripes, so a single shared epoch does not exist at this layer.
  void find_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK_MSG(keys.size() == out.size(), "find_batch spans must have equal size");
    constexpr usize kLookahead = 8;
    for (usize i = 0; i < keys.size(); ++i) {
      if (i + kLookahead < keys.size()) {
        hash::prefetch_probe_lines(view_.tab1, view_.tags2, view_.mask, view_.group_size,
                                   hash_(keys[i + kLookahead]));
      }
      out[i] = find(keys[i]);
    }
  }

  bool update(const key_type& key, u64 value) {
    Stripe& st = stripe_for(key);
    SeqLockWriteGuard guard(st.lock, &st.contention);
    return table_->update(key, value);
  }

  /// Insert-or-update under one lock acquisition.
  void put(const key_type& key, u64 value) {
    Stripe& st = stripe_for(key);
    SeqLockWriteGuard guard(st.lock, &st.contention);
    if (table_->update(key, value)) return;
    GH_CHECK_MSG(table_->insert(key, value),
                 "concurrent table is full (no auto-expansion at this layer)");
  }

  bool erase(const key_type& key) {
    Stripe& st = stripe_for(key);
    SeqLockWriteGuard guard(st.lock, &st.contention);
    return table_->erase(key);
  }

  [[nodiscard]] u64 count() const { return table_->count(); }
  [[nodiscard]] u64 capacity() const { return table_->capacity(); }
  [[nodiscard]] double load_factor() const { return table_->load_factor(); }
  [[nodiscard]] usize lock_stripes() const { return stripes_.size(); }
  [[nodiscard]] LockMode lock_mode() const { return mode_; }

  /// Unified stats sample: the table's persist/op/integrity counters plus
  /// stripe contention summed into one obs::Snapshot. Safe against
  /// concurrent writers (all fields are sampled from relaxed counters; the
  /// table itself never moves at this layer).
  [[nodiscard]] obs::Snapshot snapshot() {
    obs::Snapshot s;
    s.source = sizeof(Cell) == 16 ? "ConcurrentGroupHashTable" : "ConcurrentGroupHashTableWide";
    s.size = table_->count();
    s.capacity = table_->capacity();
    s.load_factor = table_->load_factor();
    s.shards = stripes_.size();
    s.persist = obs::PersistSnapshot::from(pm_.stats());
    s.table = obs::TableOpSnapshot::from(table_->stats());
    s.scrub = obs::ScrubSnapshot::from(table_->stats(), hash::ScrubReport{});
    for (const Stripe& st : stripes_) {
      s.contention += obs::ContentionSnapshot::from(st.contention);
    }
    return s;
  }

  /// Exclusive recovery: takes every stripe write-side, then runs
  /// Algorithm 4 (optimistic readers see odd epochs throughout and fall
  /// back to the stripe locks, which are held).
  hash::RecoveryReport recover() {
    for (Stripe& st : stripes_) st.lock.write_lock();
    const auto report = table_->recover();
    for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) it->lock.write_unlock();
    return report;
  }

  /// Unsynchronized access for single-threaded phases (setup, teardown).
  [[nodiscard]] Table& unsynchronized_table() { return *table_; }

  /// Tests only: lowers (or raises) the optimistic attempt budget; 0 sends
  /// every read straight to the lock fallback.
  void set_max_optimistic_attempts(u32 attempts) { max_optimistic_attempts_ = attempts; }

 private:
  struct Stripe {
    SeqLock lock;
    LockContention contention;
  };

  Stripe& stripe_for(const key_type& key) {
    const u64 level1 = hash_(key) & (table_->level_cells() - 1);
    const u64 group = level1 / table_->group_size();
    return stripes_[group & stripe_mask_];
  }

  nvm::NvmRegion region_;
  nvm::DirectPM pm_;
  std::optional<Table> table_;
  hash::SeededHash hash_{hash::kDefaultSeed1};
  ReadView view_;
  std::vector<Stripe> stripes_;
  u64 stripe_mask_ = 0;
  LockMode mode_;
  u32 max_optimistic_attempts_ = kMaxOptimisticAttempts;
};

using ConcurrentGroupHashTable = BasicConcurrentGroupHashTable<hash::Cell16>;
using ConcurrentGroupHashTableWide = BasicConcurrentGroupHashTable<hash::Cell32>;

}  // namespace gh
