// Implementation of the AnyTable factory (included by any_table.hpp).
#pragma once

#include <array>
#include <concepts>
#include <type_traits>
#include <utility>

#include "hash/any_table.hpp"
#include "hash/cells.hpp"
#include "hash/chained_hashing.hpp"
#include "hash/cuckoo_hashing.hpp"
#include "hash/group_hashing_2h.hpp"
#include "hash/level_hashing.hpp"
#include "hash/linear_probing.hpp"
#include "hash/path_hashing.hpp"
#include "hash/pfht.hpp"
#include "hash/two_choice.hpp"
#include "hash/wal.hpp"
#include "obs/op_scope.hpp"
#include "util/assert.hpp"

namespace gh::hash::detail {

template <class Table, class PM>
class TableAdapter final : public AnyTable<PM> {
 public:
  TableAdapter(std::string name, PM& pm, Table table, std::unique_ptr<UndoLog<PM>> wal)
      : name_(std::move(name)), pm_(&pm), table_(std::move(table)), wal_(std::move(wal)) {
    sinks_.latency = &recorder_;
    if (wal_) {
      // Schemes outside the paper's comparison (chained, 2-choice) have no
      // logging hook; a WAL configured for them is simply unused.
      if constexpr (requires(Table& t, UndoLog<PM>* w) { t.attach_wal(w); }) {
        table_.attach_wal(wal_.get());
      }
    }
  }

  bool insert(const Key128& key, u64 value) override {
    Scope op(sinks_, obs::OpKind::kInsert, key.lo);
    return table_.insert(narrow(key), value);
  }
  std::optional<u64> find(const Key128& key) override {
    Scope op(sinks_, obs::OpKind::kFind, key.lo);
    return table_.find(narrow(key));
  }
  bool erase(const Key128& key) override {
    Scope op(sinks_, obs::OpKind::kErase, key.lo);
    return table_.erase(narrow(key));
  }
  // Batched ops: dispatch to the scheme's native fence-coalescing /
  // prefetching batch entry points when it has them (group hashing);
  // otherwise fall back to the base class's scalar loops. Narrow-cell
  // tables take Key128 input through stack windows of u64 keys.
  void find_batch(std::span<const Key128> keys,
                  std::span<std::optional<u64>> out) override {
    using K = typename Table::key_type;
    if constexpr (requires(Table& t, std::span<const K> k,
                           std::span<std::optional<u64>> o) { t.find_batch(k, o); }) {
      Scope op(sinks_, obs::OpKind::kFind, 0, obs::FlightEdge::kNone);
      if constexpr (std::is_same_v<K, Key128>) {
        table_.find_batch(keys, out);
      } else {
        std::array<K, kNarrowChunk> buf;
        for (usize i = 0; i < keys.size();) {
          const usize n = std::min(kNarrowChunk, keys.size() - i);
          for (usize w = 0; w < n; ++w) buf[w] = narrow(keys[i + w]);
          table_.find_batch(std::span<const K>(buf.data(), n), out.subspan(i, n));
          i += n;
        }
      }
    } else {
      AnyTable<PM>::find_batch(keys, out);
    }
  }

  usize insert_batch(std::span<const Key128> keys, std::span<const u64> values) override {
    using K = typename Table::key_type;
    if constexpr (requires(Table& t, std::span<const K> k, std::span<const u64> v) {
                    { t.insert_batch(k, v) } -> std::convertible_to<usize>;
                  }) {
      Scope op(sinks_, obs::OpKind::kInsert, 0, obs::FlightEdge::kNone);
      usize done = 0;
      if constexpr (std::is_same_v<K, Key128>) {
        done = table_.insert_batch(keys, values);
      } else {
        std::array<K, kNarrowChunk> buf;
        while (done < keys.size()) {
          const usize n = std::min(kNarrowChunk, keys.size() - done);
          for (usize w = 0; w < n; ++w) buf[w] = narrow(keys[done + w]);
          const usize got = table_.insert_batch(std::span<const K>(buf.data(), n),
                                                values.subspan(done, n));
          done += got;
          if (got < n) break;
        }
      }
      return done;
    } else {
      return AnyTable<PM>::insert_batch(keys, values);
    }
  }

  void erase_batch(std::span<const Key128> keys, std::span<u8> hits = {}) override {
    using K = typename Table::key_type;
    if constexpr (requires(Table& t, std::span<const K> k, std::span<u8> h) {
                    t.erase_batch(k, h);
                  }) {
      Scope op(sinks_, obs::OpKind::kErase, 0, obs::FlightEdge::kNone);
      if constexpr (std::is_same_v<K, Key128>) {
        table_.erase_batch(keys, hits);
      } else {
        std::array<K, kNarrowChunk> buf;
        for (usize i = 0; i < keys.size();) {
          const usize n = std::min(kNarrowChunk, keys.size() - i);
          for (usize w = 0; w < n; ++w) buf[w] = narrow(keys[i + w]);
          table_.erase_batch(std::span<const K>(buf.data(), n),
                             hits.empty() ? std::span<u8>{} : hits.subspan(i, n));
          i += n;
        }
      }
    } else {
      AnyTable<PM>::erase_batch(keys, hits);
    }
  }

  RecoveryReport recover() override {
    Scope op(sinks_, obs::OpKind::kRecover, 0, obs::FlightEdge::kAlways);
    return table_.recover();
  }

  ScrubReport scrub(u64 max_groups,
                    const std::function<void(const LostCell&)>& on_loss) override {
    Scope op(sinks_, obs::OpKind::kScrub, 0, obs::FlightEdge::kAlways);
    return scrub_impl(max_groups, on_loss);
  }

  ScrubReport scrub_impl(u64 max_groups,
                         const std::function<void(const LostCell&)>& on_loss) {
    // Same optional-feature pattern as attach_wal: schemes without
    // scrub support report an empty (clean) pass.
    if constexpr (requires(Table& t) {
                    t.num_groups();
                    t.scrub_groups(u64{}, u64{}, [](const LostCell&) {});
                  }) {
      ScrubReport report;
      const u64 ngroups = table_.num_groups();
      if (ngroups == 0) return report;
      u64 remaining = std::min(max_groups, ngroups);
      const auto forward = [&](const LostCell& c) {
        if (on_loss) on_loss(c);
      };
      while (remaining > 0) {
        if (scrub_cursor_ >= ngroups) scrub_cursor_ = 0;
        const u64 chunk = std::min(remaining, ngroups - scrub_cursor_);
        report += table_.scrub_groups(scrub_cursor_, chunk, forward);
        scrub_cursor_ = (scrub_cursor_ + chunk) % ngroups;
        remaining -= chunk;
      }
      return report;
    } else {
      (void)on_loss;
      return ScrubReport{};
    }
  }
  u64 count() const override { return table_.count(); }
  u64 capacity() const override { return table_.capacity(); }
  TableStats& stats() override { return table_.stats(); }
  std::string name() const override { return name_; }

  obs::Snapshot snapshot() override {
    obs::Snapshot s;
    s.source = name_;
    s.size = table_.count();
    s.capacity = table_.capacity();
    s.load_factor =
        s.capacity ? static_cast<double>(s.size) / static_cast<double>(s.capacity) : 0;
    s.persist = obs::PersistSnapshot::from(pm_->stats());
    s.table = obs::TableOpSnapshot::from(table_.stats());
    s.scrub = obs::ScrubSnapshot::from(table_.stats(), ScrubReport{});
    s.latency = obs::OpLatencySnapshot::from(recorder_);
    return s;
  }

  void attach_flight(obs::BasicFlightRecorder<PM>* flight) override { sinks_.flight = flight; }

  [[nodiscard]] Table& inner() { return table_; }

 private:
  /// Stack-window size for narrowing Key128 batches to u64 keys.
  static constexpr usize kNarrowChunk = 256;

  using Scope = obs::BasicOpScope<PM>;

  static typename Table::key_type narrow(const Key128& key) {
    if constexpr (std::is_same_v<typename Table::key_type, u64>) {
      GH_DCHECK(key.hi == 0 && key.lo <= Cell16::kMaxKey);
      return key.lo;
    } else {
      return key;
    }
  }

  std::string name_;
  PM* pm_;
  Table table_;
  std::unique_ptr<UndoLog<PM>> wal_;
  u64 scrub_cursor_ = 0;
  obs::OpRecorder recorder_;
  /// recorder_ plus the optional black box (attach_flight; non-owning,
  /// null by default). Tables attribute no phases.
  obs::BasicOpSinks<PM> sinks_;
};

/// Per-scheme layout parameters derived from the shared cell budget.
inline u64 cells_budget(const TableConfig& c) { return 1ull << c.total_cells_log2; }

inline u32 clamped_group_size(const TableConfig& c) {
  const u64 level_cells = cells_budget(c) / 2;
  GH_CHECK_MSG(is_pow2(c.group_size), "group_size must be a power of two");
  return static_cast<u32>(std::min<u64>(c.group_size, level_cells));
}

inline u32 path_level0_bits(const TableConfig& c) { return c.total_cells_log2 - 1; }
inline u32 path_levels(const TableConfig& c) {
  return std::min(c.reserved_levels, c.total_cells_log2);
}

template <class Cell, class PM>
std::unique_ptr<AnyTable<PM>> make_table_cell(PM& pm, std::span<std::byte> mem,
                                              const TableConfig& cfg, bool format) {
  const u64 total = cells_budget(cfg);
  GH_CHECK_MSG(cfg.total_cells_log2 >= 4, "table too small");

  // The undo log (if any) lives after the table in the same span and
  // tracks the table bytes.
  auto finish = [&](auto table, usize table_bytes) -> std::unique_ptr<AnyTable<PM>> {
    using Table = decltype(table);
    std::unique_ptr<UndoLog<PM>> wal;
    if (cfg.with_wal) {
      const usize wal_bytes = UndoLog<PM>::required_bytes(cfg.wal_records);
      GH_CHECK(mem.size() >= table_bytes + wal_bytes);
      wal = std::make_unique<UndoLog<PM>>(pm, mem.subspan(table_bytes, wal_bytes),
                                          mem.first(table_bytes), cfg.wal_records, format);
    }
    return std::make_unique<TableAdapter<Table, PM>>(cfg.display_name(), pm,
                                                     std::move(table), std::move(wal));
  };

  switch (cfg.scheme) {
    case Scheme::kGroup: {
      using Table = GroupHashTable<Cell, PM>;
      typename Table::Params p{.level_cells = total / 2,
                               .group_size = clamped_group_size(cfg),
                               .seed = cfg.seed1,
                               .zero_memory = cfg.zero_memory,
                               .group_crc = cfg.group_crc};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kLinear: {
      using Table = LinearProbingTable<Cell, PM>;
      typename Table::Params p{.cells = total, .seed = cfg.seed1,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kPfht: {
      using Table = PfhtTable<Cell, PM>;
      typename Table::Params p{.cells = total, .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kPath: {
      using Table = PathHashTable<Cell, PM>;
      typename Table::Params p{.level0_bits = path_level0_bits(cfg),
                               .reserved_levels = path_levels(cfg),
                               .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kChained: {
      using Table = ChainedHashTable<Cell, PM>;
      typename Table::Params p{.buckets = total / 2, .pool_nodes = total,
                               .seed = cfg.seed1, .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kTwoChoice: {
      using Table = TwoChoiceTable<Cell, PM>;
      typename Table::Params p{.cells = total, .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kCuckoo: {
      using Table = CuckooHashTable<Cell, PM>;
      typename Table::Params p{.cells = total, .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kGroup2H: {
      using Table = GroupHashTable2H<Cell, PM>;
      typename Table::Params p{.level_cells = total / 2,
                               .group_size = clamped_group_size(cfg),
                               .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
    case Scheme::kLevel: {
      using Table = LevelHashTable<Cell, PM>;
      // total cells = 6 * top_buckets; 2^(T-3) tops gives 0.75 * 2^T cells.
      typename Table::Params p{.top_buckets = std::max<u64>(total >> 3, 2),
                               .seed1 = cfg.seed1, .seed2 = cfg.seed2,
                               .zero_memory = cfg.zero_memory};
      const usize bytes = Table::required_bytes(p);
      GH_CHECK(mem.size() >= bytes);
      return finish(Table(pm, mem.first(bytes), p, format), bytes);
    }
  }
  GH_CHECK(false);
  return nullptr;
}

}  // namespace gh::hash::detail

namespace gh::hash {

template <class PM>
std::unique_ptr<AnyTable<PM>> make_table(PM& pm, std::span<std::byte> mem,
                                         const TableConfig& config, bool format) {
  if (config.wide_cells) {
    return detail::make_table_cell<Cell32, PM>(pm, mem, config, format);
  }
  return detail::make_table_cell<Cell16, PM>(pm, mem, config, format);
}

}  // namespace gh::hash
