// Runtime-polymorphic view over the hash schemes.
//
// The figure benches and the property-test suite sweep {scheme ×
// persistence policy × cell width × logging}; this header erases the
// static scheme/cell types behind AnyTable<PM> and provides the factory
// that carves a table (plus its undo log, for "-L" variants) out of one
// NVM memory span.
//
// Capacity convention: `total_cells_log2` is the paper's "number of hash
// table cells" (2^23 for RandomNum etc.); each scheme receives a layout
// with (approximately) that many cells — group hashing splits them
// between its two levels, PFHT adds its 3% stash on top, path hashing
// fills levels until the budget is met.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "hash/group_hashing.hpp"
#include "hash/table_stats.hpp"
#include "obs/snapshot.hpp"
#include "util/types.hpp"

namespace gh::obs {
template <class PM>
class BasicFlightRecorder;  // obs/flight_recorder.hpp
}

namespace gh::hash {

enum class Scheme {
  kGroup,      ///< the paper's contribution (§3)
  kLinear,     ///< linear probing with backward-shift delete
  kPfht,       ///< cuckoo variant, 4-cell buckets, ≤1 displacement, 3% stash
  kPath,       ///< inverted-binary-tree position sharing
  kChained,    ///< excluded baseline (§4.1): allocation churn
  kTwoChoice,  ///< excluded baseline (§4.1): low utilisation
  kCuckoo,     ///< classic cuckoo with full eviction chains (ablation)
  kGroup2H,    ///< the paper's rejected §4.4 two-hash-function variant
  kLevel,      ///< level hashing (OSDI'18 successor scheme; extension)
};

const char* scheme_name(Scheme scheme);

struct TableConfig {
  Scheme scheme = Scheme::kGroup;
  u32 total_cells_log2 = 12;
  u32 group_size = 256;       ///< group hashing only
  u32 reserved_levels = 20;   ///< path hashing only
  bool wide_cells = false;    ///< true: 32-byte cells (Key128), false: 16-byte (u64)
  bool with_wal = false;      ///< attach an undo log ("-L" variant)
  u32 wal_records = 4096;
  u64 seed1 = kDefaultSeed1;
  u64 seed2 = kDefaultSeed2;
  bool zero_memory = false;
  bool group_crc = false;  ///< group hashing only: per-group checksums

  [[nodiscard]] std::string display_name() const {
    std::string n = scheme_name(scheme);
    if (with_wal) n += "-L";
    return n;
  }
};

/// Type-erased persistent hash table. Narrow-cell tables take the key in
/// Key128::lo (hi must be zero and bit 63 clear).
template <class PM>
class AnyTable {
 public:
  virtual ~AnyTable() = default;

  virtual bool insert(const Key128& key, u64 value) = 0;
  virtual std::optional<u64> find(const Key128& key) = 0;
  virtual bool erase(const Key128& key) = 0;

  /// Batched lookup; out[i] receives the result for keys[i]. The default
  /// is a scalar loop; schemes with a native batched probe (group
  /// hashing's prefetching find_batch) override it.
  virtual void find_batch(std::span<const Key128> keys,
                          std::span<std::optional<u64>> out) {
    for (usize i = 0; i < keys.size(); ++i) out[i] = find(keys[i]);
  }

  /// Batched insert. Applies a strict prefix of the keys in order and
  /// returns its length (keys.size() unless the table filled up).
  /// Schemes with fence-coalescing batch support override the default
  /// scalar loop.
  virtual usize insert_batch(std::span<const Key128> keys, std::span<const u64> values) {
    for (usize i = 0; i < keys.size(); ++i) {
      if (!insert(keys[i], values[i])) return i;
    }
    return keys.size();
  }

  /// Batched erase. When `hits` is non-empty it must be keys.size() long;
  /// hits[i] is set to 1 if keys[i] was present. Duplicate keys within
  /// the batch behave sequentially.
  virtual void erase_batch(std::span<const Key128> keys, std::span<u8> hits = {}) {
    for (usize i = 0; i < keys.size(); ++i) {
      const bool hit = erase(keys[i]);
      if (!hits.empty()) hits[i] = hit ? 1 : 0;
    }
  }

  virtual RecoveryReport recover() = 0;
  /// Incremental integrity pass over up to `max_groups` checksummed
  /// groups, resuming at an internal wrap-around cursor; lost/salvaged
  /// cells are reported through `on_loss` (may be empty). Schemes without
  /// per-group checksums — every scheme except group hashing created with
  /// group_crc, including group hashing without it — return an empty
  /// report.
  virtual ScrubReport scrub(u64 max_groups,
                            const std::function<void(const LostCell&)>& on_loss) = 0;
  ScrubReport scrub(u64 max_groups = ~u64{0}) { return scrub(max_groups, {}); }
  [[nodiscard]] virtual u64 count() const = 0;
  [[nodiscard]] virtual u64 capacity() const = 0;
  [[nodiscard]] virtual TableStats& stats() = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Unified stats sample: persist + table-op + scrub + latency data in
  /// one obs::Snapshot (the single read API; see obs/snapshot.hpp).
  [[nodiscard]] virtual obs::Snapshot snapshot() = 0;

  /// Attach a flight recorder (obs/flight_recorder.hpp) that the table
  /// threads op start/finish records through. Non-owning — the caller
  /// keeps the recorder (and its PM region) alive for the table's
  /// lifetime; pass nullptr to detach. Default-off so existing callers
  /// (and their crash-event schedules) are unperturbed.
  virtual void attach_flight(obs::BasicFlightRecorder<PM>* flight) = 0;

  [[nodiscard]] double load_factor() const {
    return static_cast<double>(count()) / static_cast<double>(capacity());
  }
};

/// Bytes needed for a table with this configuration (including the undo
/// log when with_wal is set).
usize table_required_bytes(const TableConfig& config);

/// Construct a table inside `mem` (sized by table_required_bytes).
/// `format` true initialises a fresh table; false attaches to an existing
/// one with identical configuration.
template <class PM>
std::unique_ptr<AnyTable<PM>> make_table(PM& pm, std::span<std::byte> mem,
                                         const TableConfig& config, bool format);

}  // namespace gh::hash

#include "hash/any_table_impl.hpp"  // IWYU pragma: keep
