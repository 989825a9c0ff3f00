// One mutation path: every GroupHashTable insert, update-or-insert and
// erase runs the fence-coalesced window code, and a scalar op is a window
// of one key. These tests pin what that costs and counts:
//
//   * per-op PM traffic — fences and flushed cachelines, not how they are
//     grouped into persist() calls — equals the paper's per-op protocol
//     (Algorithms 1 and 3) for both cell widths, with and without group
//     checksums, and equals the matching *_batch call of one key;
//   * under CountMode::kRecoveryOnly an op persists only its cell,
//     checksums add nothing, and seal() costs one fence plus the count
//     and checksum lines;
//   * under CommitOrder::kSameLine (the durable maps' protocol) an op
//     flushes its cell's line once and fences once, and a window of up to
//     32 keys fences once and flushes each distinct line its cells touch
//     exactly once (cells sharing a line, a hot key updated eight times);
//   * an attached undo log runs windows of one, so a batch of n keys
//     costs exactly n scalar ops;
//   * only the *_batch entry points count toward batch_ops/batch_keys.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "hash/wal.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "test_support.hpp"
#include "util/crc32c.hpp"

namespace gh::hash {
namespace {

enum class Op { kInsert, kUpdate, kEraseHit, kEraseMiss };
enum class Width { k16, k32 };

struct Traffic {
  u64 fences = 0;
  u64 lines = 0;
  friend bool operator==(const Traffic&, const Traffic&) = default;
};

void PrintTo(const Traffic& t, std::ostream* os) {
  *os << t.fences << " fences / " << t.lines << " lines";
}

/// The paper's per-op protocol. Insert: payload, commit word, count.
/// Erase: commit word, payload wipe, count. Update: one 8-byte value
/// overwrite. A miss writes nothing. A checksummed mutation adds one
/// store+flush+fence of its group's checksum word.
Traffic expected_traffic(Op op, bool crc) {
  const u64 crc_word = crc ? 1 : 0;
  switch (op) {
    case Op::kInsert:
    case Op::kEraseHit:
      return {3 + crc_word, 3 + crc_word};
    case Op::kUpdate:
      return {1 + crc_word, 1 + crc_word};
    case Op::kEraseMiss:
      return {0, 0};
  }
  return {};
}

template <class Cell>
typename Cell::key_type key_of(u64 i) {
  if constexpr (std::is_same_v<typename Cell::key_type, u64>) {
    return test::k64(i) | 1;
  } else {
    return Key128{test::k64(i) | 1, i};
  }
}

template <class Cell>
using Table = GroupHashTable<Cell, nvm::DirectPM>;

/// One way of issuing an op: its name and a call on the table that
/// reports whether the op hit (placed / found the key).
template <class Cell>
struct Variant {
  std::string name;
  std::function<bool(Table<Cell>&, typename Cell::key_type, u64)> run;
};

/// Every entry point that performs `op`: the scalar call(s) and the
/// *_batch call(s) of one key.
template <class Cell>
std::vector<Variant<Cell>> variants(Op op) {
  using K = typename Cell::key_type;
  const auto insert = [](Table<Cell>& t, K k, u64 v) { return t.insert(k, v); };
  const auto upsert = [](Table<Cell>& t, K k, u64 v) { return t.upsert(k, v); };
  const auto update = [](Table<Cell>& t, K k, u64 v) { return t.update(k, v); };
  const auto erase = [](Table<Cell>& t, K k, u64) { return t.erase(k); };
  const auto insert_batch = [](Table<Cell>& t, K k, u64 v) {
    return t.insert_batch({&k, 1}, {&v, 1}) == 1;
  };
  const auto upsert_batch = [](Table<Cell>& t, K k, u64 v) {
    return t.upsert_batch({&k, 1}, {&v, 1}) == 1;
  };
  const auto erase_batch = [](Table<Cell>& t, K k, u64) {
    u8 hit = 0;
    const usize erased = t.erase_batch({&k, 1}, {&hit, 1});
    EXPECT_EQ(erased, hit);
    return erased == 1;
  };
  switch (op) {
    case Op::kInsert:
      return {{"insert", insert},
              {"upsert", upsert},
              {"insert_batch", insert_batch},
              {"upsert_batch", upsert_batch}};
    case Op::kUpdate:
      return {{"update", update}, {"upsert", upsert}, {"upsert_batch", upsert_batch}};
    case Op::kEraseHit:
    case Op::kEraseMiss:
      return {{"erase", erase}, {"erase_batch", erase_batch}};
  }
  return {};
}

/// Recovery-derived count and checksum words: an op persists only its
/// cell. Insert: payload, commit word. Erase: commit word, payload wipe.
/// Update: the value. Checksums add no flush and no fence.
Traffic expected_recovery_only_traffic(Op op, bool /*crc*/) {
  switch (op) {
    case Op::kInsert:
    case Op::kEraseHit:
      return {2, 2};
    case Op::kUpdate:
      return {1, 1};
    case Op::kEraseMiss:
      return {0, 0};
  }
  return {};
}

/// Same-line commit: the cell's stores share one flush of its line and
/// the window one fence. Insert: payload, commit word. Erase: commit
/// word, payload wipe. Update: the value.
Traffic expected_same_line_traffic(Op op, bool /*crc*/) {
  switch (op) {
    case Op::kInsert:
    case Op::kEraseHit:
    case Op::kUpdate:
      return {1, 1};
    case Op::kEraseMiss:
      return {0, 0};
  }
  return {};
}

/// Runs one variant of `op` on a table already holding keys 1..8 and
/// returns the op's own PM traffic.
template <class Cell>
Traffic measure(Op op, bool crc, CountMode mode, CommitOrder order,
                const Variant<Cell>& variant) {
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = fx.init(typename Table<Cell>::Params{.level_cells = 256,
                                                        .group_size = 16,
                                                        .count_mode = mode,
                                                        .group_crc = crc,
                                                        .commit_order = order});
  for (u64 i = 1; i <= 8; ++i) EXPECT_TRUE(t.insert(key_of<Cell>(i), i));
  const bool targets_present_key = op == Op::kUpdate || op == Op::kEraseHit;
  const auto key = key_of<Cell>(targets_present_key ? 3 : 100);
  fx.pm().stats().clear();
  EXPECT_EQ(variant.run(t, key, 777), op != Op::kEraseMiss) << variant.name;
  const Traffic traffic{fx.pm().stats().fences, fx.pm().stats().lines_flushed};
  if (crc) {
    for (u64 g = 0; g < t.num_groups(); ++g) {
      EXPECT_TRUE(t.verify_group_checksum(0, g) && t.verify_group_checksum(1, g))
          << variant.name;
    }
  }
  return traffic;
}

class MutationTraffic : public ::testing::TestWithParam<std::tuple<Width, bool, Op>> {
 protected:
  void check(CountMode mode, Traffic (*expected)(Op, bool),
             CommitOrder order = CommitOrder::kFenced) {
    if (std::get<0>(GetParam()) == Width::k16) {
      check<Cell16>(mode, expected, order);
    } else {
      check<Cell32>(mode, expected, order);
    }
  }

  template <class Cell>
  void check(CountMode mode, Traffic (*expected)(Op, bool), CommitOrder order) {
    const auto [width, crc, op] = GetParam();
    (void)width;
    const Traffic want = expected(op, crc);
    for (const Variant<Cell>& v : variants<Cell>(op)) {
      EXPECT_EQ(measure<Cell>(op, crc, mode, order, v), want) << v.name;
    }
  }
};

TEST_P(MutationTraffic, ScalarAndBatchOfOneIssueThePaperProtocol) {
  check(CountMode::kEager, expected_traffic);
}

class RecoveryOnlyTraffic : public MutationTraffic {};

TEST_P(RecoveryOnlyTraffic, OpPersistsOnlyItsCell) {
  check(CountMode::kRecoveryOnly, expected_recovery_only_traffic);
}

class SameLineTraffic : public MutationTraffic {};

TEST_P(SameLineTraffic, OpFlushesItsLineOnce) {
  check(CountMode::kRecoveryOnly, expected_same_line_traffic, CommitOrder::kSameLine);
}

std::string case_name(const ::testing::TestParamInfo<MutationTraffic::ParamType>& info) {
  const auto [width, crc, op] = info.param;
  static const char* const kOps[] = {"Insert", "Update", "EraseHit", "EraseMiss"};
  return std::string(width == Width::k16 ? "Cell16" : "Cell32") + (crc ? "Crc" : "NoCrc") +
         kOps[static_cast<int>(op)];
}

INSTANTIATE_TEST_SUITE_P(
    CellsCrcOps, MutationTraffic,
    ::testing::Combine(::testing::Values(Width::k16, Width::k32), ::testing::Bool(),
                       ::testing::Values(Op::kInsert, Op::kUpdate, Op::kEraseHit,
                                         Op::kEraseMiss)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    CellsCrcOps, RecoveryOnlyTraffic,
    ::testing::Combine(::testing::Values(Width::k16, Width::k32), ::testing::Bool(),
                       ::testing::Values(Op::kInsert, Op::kUpdate, Op::kEraseHit,
                                         Op::kEraseMiss)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    CellsCrcOps, SameLineTraffic,
    ::testing::Combine(::testing::Values(Width::k16, Width::k32), ::testing::Bool(),
                       ::testing::Values(Op::kInsert, Op::kUpdate, Op::kEraseHit,
                                         Op::kEraseMiss)),
    case_name);

// ---------------------------------------------------------------------------
// Same-line windows: one fence per window, whatever its size
// ---------------------------------------------------------------------------

/// Distinct cachelines holding an occupied cell, on either level.
template <class Cell>
u64 occupied_lines(const Table<Cell>& t) {
  std::set<const std::byte*> lines;
  for (u64 i = 0; i < t.level_cells(); ++i) {
    for (const Cell* c : {&t.level1_cell(i), &t.level2_cell(i)}) {
      if (c->occupied()) lines.insert(nvm::line_begin(c));
    }
  }
  return lines.size();
}

template <class Cell>
Table<Cell>& init_same_line(test::TableFixture<Table<Cell>>& fx, bool crc) {
  using Params = typename Table<Cell>::Params;
  return fx.init(Params{.level_cells = 256,
                        .group_size = 16,
                        .count_mode = CountMode::kRecoveryOnly,
                        .group_crc = crc,
                        .commit_order = CommitOrder::kSameLine});
}

template <class Cell>
void expect_checksums_exact(const Table<Cell>& t) {
  for (u64 g = 0; g < t.num_groups(); ++g) {
    EXPECT_TRUE(t.verify_group_checksum(0, g) && t.verify_group_checksum(1, g)) << g;
  }
}

template <class Cell>
void check_same_line_window(bool crc) {
  SCOPED_TRACE(std::string(sizeof(Cell) == 16 ? "Cell16" : "Cell32") + (crc ? " crc" : ""));
  constexpr usize kKeys = Table<Cell>::kBatchWindow;
  std::vector<typename Cell::key_type> keys;
  std::vector<u64> values;
  for (u64 i = 1; i <= kKeys; ++i) {
    keys.push_back(key_of<Cell>(i));
    values.push_back(i);
  }
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = init_same_line(fx, crc);
  const nvm::PersistStats& stats = fx.pm().stats();
  fx.pm().stats().clear();
  ASSERT_EQ(t.insert_batch(keys, values), kKeys);
  // Each line the window's cells touch, once; none for the words.
  const u64 lines = occupied_lines(t);
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, lines);

  fx.pm().stats().clear();
  for (u64& v : values) v += 100;
  ASSERT_EQ(t.upsert_batch(keys, values), kKeys);  // every key an update
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, lines);

  fx.pm().stats().clear();
  std::vector<u8> hits(kKeys, 0);
  ASSERT_EQ(t.erase_batch(keys, hits), kKeys);
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, lines);
  EXPECT_EQ(t.count(), 0u);
  if (crc) expect_checksums_exact(t);

  // A resize's group retire: stores only. The map's durable cursor
  // retires the group, so the clear flushes no line and issues no fence.
  for (u64 i = 1; i <= kKeys; ++i) ASSERT_TRUE(t.insert(key_of<Cell>(i), i));
  const u64 refilled_lines = occupied_lines(t);
  ASSERT_GT(refilled_lines, 0u);
  fx.pm().stats().clear();
  u64 cleared = 0;
  for (u64 g = 0; g < t.num_groups(); ++g) cleared += t.clear_group(g);
  EXPECT_EQ(cleared, kKeys);
  EXPECT_EQ(stats.fences, 0u);
  EXPECT_EQ(stats.lines_flushed, 0u);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(occupied_lines(t), 0u);
  if (crc) expect_checksums_exact(t);
}

TEST(SameLineWindow, FullWindowCostsOneFence) {
  for (const bool crc : {false, true}) {
    check_same_line_window<Cell16>(crc);
    check_same_line_window<Cell32>(crc);
  }
}

/// Window rows where every cell shares one line: a line of level-2 cells
/// filled, updated and erased by one window each, and one hot key updated
/// eight times in one window.
template <class Cell>
void check_shared_line_windows(bool crc) {
  SCOPED_TRACE(std::string(sizeof(Cell) == 16 ? "Cell16" : "Cell32") + (crc ? " crc" : ""));
  using K = typename Cell::key_type;
  constexpr usize kPerLine = kCachelineSize / sizeof(Cell);
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = init_same_line(fx, crc);
  const nvm::PersistStats& stats = fx.pm().stats();
  // One key owning home slot `home` at level 1, then kPerLine more with the
  // same home: they fill the first kPerLine level-2 cells of the group,
  // which are one line (a 16-cell group starts on a line).
  const u64 home = t.home_index(key_of<Cell>(1));
  std::vector<K> same_home;
  for (u64 i = 2; same_home.size() < kPerLine + 1; ++i) {
    ASSERT_LT(i, 1'000'000u);
    if (t.home_index(key_of<Cell>(i)) == home) same_home.push_back(key_of<Cell>(i));
  }
  ASSERT_TRUE(t.insert(key_of<Cell>(1), 1));
  const std::vector<K> keys(same_home.begin(), same_home.begin() + kPerLine);
  std::vector<u64> values(kPerLine);
  for (usize i = 0; i < kPerLine; ++i) values[i] = 10 + i;

  fx.pm().stats().clear();
  ASSERT_EQ(t.insert_batch(keys, values), kPerLine);
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, 1u) << kPerLine << " level-2 cells of one line";
  const u64 j = home - home % t.group_size();
  for (usize i = 0; i < kPerLine; ++i) {
    ASSERT_TRUE(t.level2_cell(j + i).matches(keys[i])) << "filled in slot order";
  }

  // Eight in-window updates of one hot key: one value word, one line.
  const std::vector<K> hot(8, keys[1]);
  const std::vector<u64> hot_values = {21, 22, 23, 24, 25, 26, 27, 28};
  fx.pm().stats().clear();
  ASSERT_EQ(t.upsert_batch(hot, hot_values), hot.size());
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, 1u);
  EXPECT_EQ(t.find(keys[1]), 28u);

  // The same for a key that is new to the window: one publish, seven
  // re-stages of its value.
  const std::vector<K> fresh(8, same_home[kPerLine]);
  fx.pm().stats().clear();
  ASSERT_EQ(t.upsert_batch(fresh, hot_values), fresh.size());
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, 1u);
  EXPECT_EQ(t.find(same_home[kPerLine]), 28u);
  ASSERT_TRUE(t.erase(same_home[kPerLine]));

  // An erase window over the shared line.
  std::vector<u8> hits(kPerLine, 0);
  fx.pm().stats().clear();
  ASSERT_EQ(t.erase_batch(keys, hits), kPerLine);
  EXPECT_EQ(stats.fences, 1u);
  EXPECT_EQ(stats.lines_flushed, 1u);
  EXPECT_EQ(t.count(), 1u);
  if (crc) expect_checksums_exact(t);
}

TEST(SameLineWindow, CellsOfOneLineShareOneFlush) {
  for (const bool crc : {false, true}) {
    check_shared_line_windows<Cell16>(crc);
    check_shared_line_windows<Cell32>(crc);
  }
}

TEST(SameLineWindowDeathTest, RequiresRecoveryOnlyCountAndNoUndoLog) {
  using T = Table<Cell16>;
  EXPECT_DEATH(test::TableFixture<T>{}.init(T::Params{.level_cells = 256,
                                                      .group_size = 16,
                                                      .count_mode = CountMode::kEager,
                                                      .commit_order = CommitOrder::kSameLine}),
               "kRecoveryOnly");
  const T::Params params{.level_cells = 256,
                         .group_size = 16,
                         .count_mode = CountMode::kRecoveryOnly,
                         .commit_order = CommitOrder::kSameLine};
  nvm::DirectPM pm(nvm::PersistConfig::counting_only());
  nvm::NvmRegion table_mem = nvm::NvmRegion::create_anonymous(T::required_bytes(params));
  nvm::NvmRegion log_mem =
      nvm::NvmRegion::create_anonymous(UndoLog<nvm::DirectPM>::required_bytes(64));
  const auto tracked = table_mem.bytes().first(T::required_bytes(params));
  T table(pm, tracked, params, /*format=*/true);
  UndoLog<nvm::DirectPM> wal(pm, log_mem.bytes(), tracked, 64, /*format=*/true);
  EXPECT_DEATH(table.attach_wal(&wal), "undo log");
  // Cells that do not start on a line are refused too.
  nvm::NvmRegion shifted = nvm::NvmRegion::create_anonymous(T::required_bytes(params) + 64);
  EXPECT_DEATH(T(pm, shifted.bytes().subspan(8, T::required_bytes(params)), params,
                 /*format=*/true),
               "line-aligned");
}

// ---------------------------------------------------------------------------
// Checksum words stay exact after every window kind
// ---------------------------------------------------------------------------
//
// A window digests each cell it writes when it writes it, from the key
// and value it holds, instead of reading the cell back after its line
// was flushed. These rows pin that the words stay exact for every way a
// window writes a cell.

/// True when every group checksum word equals its group's re-derived
/// digest.
template <class Cell>
bool checksums_exact(const Table<Cell>& t) {
  for (u64 g = 0; g < t.num_groups(); ++g) {
    if (!t.verify_group_checksum(0, g) || !t.verify_group_checksum(1, g)) return false;
  }
  return true;
}

/// Digest of a cell at global index `index` holding (key, value)
/// committed: the value a group checksum folds in for it.
template <class Cell>
u32 digest_of(u64 index, typename Cell::key_type key, u64 value) {
  struct Stores {
    void store_u64(u64* dst, u64 v) { *dst = v; }
    void atomic_store_u64(u64* dst, u64 v) { *dst = v; }
    void flush(const void*, usize) {}
  } stores;
  Cell image{};
  image.publish_same_line(stores, key, value);
  return crc32c_seeded(index, &image, sizeof(Cell));
}

/// Keys with home group `g`, from index `from` on.
template <class Cell>
std::vector<typename Cell::key_type> keys_in_group(const Table<Cell>& t, u64 g, usize n,
                                                   u64 from) {
  std::vector<typename Cell::key_type> keys;
  for (u64 i = from; keys.size() < n; ++i) {
    if (t.home_index(key_of<Cell>(i)) / t.group_size() == g) keys.push_back(key_of<Cell>(i));
  }
  return keys;
}

struct WindowConfig {
  CountMode mode;
  CommitOrder order;
  const char* name;
};

constexpr WindowConfig kWindowConfigs[] = {
    {CountMode::kEager, CommitOrder::kFenced, "eager fenced"},
    {CountMode::kRecoveryOnly, CommitOrder::kFenced, "recovery-only fenced"},
    {CountMode::kRecoveryOnly, CommitOrder::kSameLine, "recovery-only same-line"},
};

template <class Cell>
void check_checksums_after_every_window(const WindowConfig& config) {
  SCOPED_TRACE(std::string(sizeof(Cell) == 16 ? "Cell16 " : "Cell32 ") + config.name);
  using K = typename Cell::key_type;
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = fx.init(typename Table<Cell>::Params{.level_cells = 256,
                                                        .group_size = 16,
                                                        .count_mode = config.mode,
                                                        .group_crc = true,
                                                        .commit_order = config.order});
  // An insert window.
  std::vector<K> keys;
  std::vector<u64> values;
  for (u64 i = 1; i <= 24; ++i) {
    keys.push_back(key_of<Cell>(i));
    values.push_back(i);
  }
  ASSERT_EQ(t.insert_batch(keys, values), keys.size());
  EXPECT_TRUE(checksums_exact(t)) << "insert window";

  // A window with duplicate new keys: each repeat re-stages its cell.
  const K a = key_of<Cell>(101);
  const K b = key_of<Cell>(102);
  const std::vector<K> dups = {a, b, a, key_of<Cell>(103), a, b};
  const std::vector<u64> dup_values = {1, 2, 3, 4, 5, 6};
  ASSERT_EQ(t.upsert_batch(dups, dup_values), dups.size());
  EXPECT_EQ(t.find(a), std::optional<u64>(5));
  EXPECT_EQ(t.find(b), std::optional<u64>(6));
  EXPECT_TRUE(checksums_exact(t)) << "window with duplicate keys";

  // An update window: every key present, one of them twice.
  std::vector<K> present(keys.begin(), keys.begin() + 8);
  present.push_back(keys[3]);
  std::vector<u64> present_values;
  for (usize i = 0; i < present.size(); ++i) present_values.push_back(1000 + i);
  ASSERT_EQ(t.upsert_batch(present, present_values), present.size());
  EXPECT_EQ(t.find(keys[3]), std::optional<u64>(1008));
  EXPECT_TRUE(checksums_exact(t)) << "update window";

  // A scalar update.
  ASSERT_TRUE(t.update(keys[10], 4242));
  EXPECT_TRUE(checksums_exact(t)) << "scalar update";

  // An erase window, with a miss and a repeat.
  std::vector<K> gone(keys.begin() + 12, keys.begin() + 20);
  gone.push_back(key_of<Cell>(999));
  gone.push_back(keys[12]);
  std::vector<u8> hits(gone.size(), 0);
  ASSERT_EQ(t.erase_batch(gone, hits), 8u);
  EXPECT_TRUE(checksums_exact(t)) << "erase window";

  // A window cut short by a full group: one group holds 2 x 16 cells at
  // most, so 48 keys homed there cannot all land.
  const u64 g = t.num_groups() - 1;
  const std::vector<K> crowd = keys_in_group(t, g, 48, 10'000);
  const std::vector<u64> crowd_values(crowd.size(), 77);
  const usize placed = t.upsert_batch(crowd, crowd_values);
  EXPECT_LT(placed, crowd.size());
  EXPECT_GT(placed, 0u);
  EXPECT_TRUE(checksums_exact(t)) << "window cut short by a full group";
  EXPECT_TRUE(t.verify_tags());
}

TEST(WindowChecksums, ExactAfterEveryWindowKind) {
  for (const WindowConfig& config : kWindowConfigs) {
    check_checksums_after_every_window<Cell16>(config);
    check_checksums_after_every_window<Cell32>(config);
  }
}

/// Negative control: had a re-stage kept the delta of the value it
/// replaced, the checksum word would be off by exactly the digest change
/// of that cell, and checksums_exact() must see it.
template <class Cell>
void check_stale_restage_delta_is_caught(const WindowConfig& config) {
  SCOPED_TRACE(std::string(sizeof(Cell) == 16 ? "Cell16 " : "Cell32 ") + config.name);
  using K = typename Cell::key_type;
  using Header = typename Table<Cell>::Header;
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = fx.init(typename Table<Cell>::Params{.level_cells = 256,
                                                        .group_size = 16,
                                                        .count_mode = config.mode,
                                                        .group_crc = true,
                                                        .commit_order = config.order});
  const K key = key_of<Cell>(7);
  const std::vector<K> keys = {key, key};
  const std::vector<u64> values = {10, 20};
  ASSERT_EQ(t.upsert_batch(keys, values), keys.size());
  ASSERT_TRUE(checksums_exact(t));
  // Level 1 takes a fresh key at its home slot.
  const u64 home = t.home_index(key);
  ASSERT_TRUE(t.level1_cell(home).matches(key));
  const u32 stale = digest_of<Cell>(home, key, 10) ^ digest_of<Cell>(home, key, 20);
  auto* crc = reinterpret_cast<u64*>(fx.region_bytes().data() + sizeof(Header) +
                                     2 * t.level_cells() * sizeof(Cell));
  u64& word = crc[home / t.group_size()];
  word ^= stale;
  EXPECT_FALSE(checksums_exact(t)) << "a stale re-stage delta must fail the check";
  word ^= stale;
  EXPECT_TRUE(checksums_exact(t));
}

TEST(WindowChecksums, NegativeControlStaleRestageDeltaFails) {
  for (const WindowConfig& config : kWindowConfigs) {
    check_stale_restage_delta_is_caught<Cell16>(config);
    check_stale_restage_delta_is_caught<Cell32>(config);
  }
}

// ---------------------------------------------------------------------------
// seal(): what makes the recovery-derived words exact before a clean mark
// ---------------------------------------------------------------------------

template <class Cell>
void check_seal(bool crc) {
  SCOPED_TRACE(std::string(sizeof(Cell) == 16 ? "Cell16" : "Cell32") + (crc ? " crc" : ""));
  test::TableFixture<Table<Cell>> fx;
  Table<Cell>& t = fx.init(typename Table<Cell>::Params{.level_cells = 256,
                                                        .group_size = 16,
                                                        .count_mode = CountMode::kRecoveryOnly,
                                                        .group_crc = crc});
  for (u64 i = 1; i <= 20; ++i) ASSERT_TRUE(t.insert(key_of<Cell>(i), i));
  ASSERT_TRUE(t.erase(key_of<Cell>(7)));
  using Header = typename Table<Cell>::Header;
  const auto* header = reinterpret_cast<const Header*>(fx.region_bytes().data());
  EXPECT_EQ(header->count, 0u) << "the count word is written only by seal() and recovery";
  EXPECT_EQ(t.count(), 19u);

  fx.pm().stats().clear();
  t.seal();
  const u64 crc_lines = crc ? (2 * t.num_groups() * sizeof(u64) + kCachelineSize - 1) /
                                  kCachelineSize
                            : 0;
  EXPECT_EQ(fx.pm().stats().fences, 1u);
  EXPECT_EQ(fx.pm().stats().lines_flushed, 1 + crc_lines);
  EXPECT_EQ(header->count, 19u);
  if (crc) {
    for (u64 g = 0; g < t.num_groups(); ++g) {
      EXPECT_TRUE(t.verify_group_checksum(0, g) && t.verify_group_checksum(1, g));
    }
  }
}

TEST(RecoveryOnlySeal, CostsOneFenceAndTheCountAndChecksumLines) {
  for (const bool crc : {false, true}) {
    check_seal<Cell16>(crc);
    check_seal<Cell32>(crc);
  }
}

// ---------------------------------------------------------------------------
// Undo-log wrapped tables run windows of one
// ---------------------------------------------------------------------------

class LoggedTable {
 public:
  using T = Table<Cell16>;

  LoggedTable() {
    const T::Params params{.level_cells = 256, .group_size = 16};
    table_mem_ = nvm::NvmRegion::create_anonymous(T::required_bytes(params));
    log_mem_ = nvm::NvmRegion::create_anonymous(UndoLog<nvm::DirectPM>::required_bytes(64));
    const auto tracked = table_mem_.bytes().first(T::required_bytes(params));
    table_.emplace(pm_, tracked, params, /*format=*/true);
    wal_.emplace(pm_, log_mem_.bytes(), tracked, 64, /*format=*/true);
    table_->attach_wal(&*wal_);
  }

  T& table() { return *table_; }
  UndoLog<nvm::DirectPM>& wal() { return *wal_; }
  nvm::DirectPM& pm() { return pm_; }

 private:
  nvm::DirectPM pm_{nvm::PersistConfig::counting_only()};
  nvm::NvmRegion table_mem_;
  nvm::NvmRegion log_mem_;
  std::optional<T> table_;
  std::optional<UndoLog<nvm::DirectPM>> wal_;
};

TEST(MutationWindowWal, BatchOfNCostsNScalarOps) {
  const std::vector<u64> keys = {key_of<Cell16>(1), key_of<Cell16>(2), key_of<Cell16>(3)};
  const std::vector<u64> values = {10, 20, 30};

  LoggedTable scalar;
  scalar.pm().stats().clear();
  for (usize i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(scalar.table().insert(keys[i], values[i]));
  }
  const Traffic scalar_insert{scalar.pm().stats().fences, scalar.pm().stats().lines_flushed};
  // Each insert logs its target cell and the count in its own transaction.
  EXPECT_EQ(scalar.wal().lifetime_records(), 2 * keys.size());
  EXPECT_EQ(scalar.wal().records_in_transaction(), 2u);
  EXPECT_FALSE(scalar.wal().in_transaction());

  LoggedTable batched;
  batched.pm().stats().clear();
  ASSERT_EQ(batched.table().insert_batch(keys, values), keys.size());
  EXPECT_EQ((Traffic{batched.pm().stats().fences, batched.pm().stats().lines_flushed}),
            scalar_insert);
  EXPECT_EQ(batched.wal().lifetime_records(), 2 * keys.size());
  EXPECT_EQ(batched.wal().records_in_transaction(), 2u);

  scalar.pm().stats().clear();
  batched.pm().stats().clear();
  for (const u64 k : keys) ASSERT_TRUE(scalar.table().erase(k));
  std::vector<u8> hits(keys.size(), 0);
  ASSERT_EQ(batched.table().erase_batch(keys, hits), keys.size());
  EXPECT_EQ((Traffic{batched.pm().stats().fences, batched.pm().stats().lines_flushed}),
            (Traffic{scalar.pm().stats().fences, scalar.pm().stats().lines_flushed}));
  EXPECT_EQ(batched.wal().lifetime_records(), scalar.wal().lifetime_records());
  EXPECT_EQ(batched.table().count(), 0u);
}

// ---------------------------------------------------------------------------
// Counters: scalar ops are not batch calls
// ---------------------------------------------------------------------------

TEST(MutationWindowCounters, ScalarOpsCountOpsNotBatches) {
  test::TableFixture<Table<Cell16>> fx;
  Table<Cell16>& t = fx.init(Table<Cell16>::Params{.level_cells = 256, .group_size = 16});
  const TableStats& s = t.stats();
  const u64 a = key_of<Cell16>(1);
  const u64 b = key_of<Cell16>(2);

  ASSERT_TRUE(t.insert(a, 1));
  ASSERT_TRUE(t.upsert(b, 2));  // new key: an insert
  ASSERT_TRUE(t.upsert(b, 3));  // present key: an in-place update
  EXPECT_EQ(s.inserts, 2u);
  ASSERT_TRUE(t.erase(a));
  ASSERT_FALSE(t.erase(a));
  EXPECT_EQ(s.erases, 2u);
  EXPECT_EQ(s.erase_hits, 1u);
  EXPECT_EQ(s.batch_ops, 0u);
  EXPECT_EQ(s.batch_keys, 0u);

  const std::vector<u64> keys = {key_of<Cell16>(3), key_of<Cell16>(4), key_of<Cell16>(5)};
  const std::vector<u64> values = {3, 4, 5};
  ASSERT_EQ(t.insert_batch(keys, values), keys.size());
  ASSERT_EQ(t.upsert_batch(keys, values), keys.size());
  ASSERT_EQ(t.erase_batch(keys, {}), keys.size());
  EXPECT_EQ(s.batch_ops, 3u);
  EXPECT_EQ(s.batch_keys, 3 * keys.size());
  EXPECT_EQ(s.inserts, 2u + keys.size());
  EXPECT_EQ(s.erases, 2u + keys.size());
  EXPECT_EQ(s.erase_hits, 1u + keys.size());
}

}  // namespace
}  // namespace gh::hash
