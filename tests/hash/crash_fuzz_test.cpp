// Randomized multi-operation crash fuzzing.
//
// Where crash_injection_test.cpp enumerates every crash point inside ONE
// operation, this test runs a whole mixed workload (inserts, queries,
// deletes) and injects crashes at random persistence events anywhere in
// the sequence, under random eviction. After recovery the table must
// equal the oracle state as of the last completed operation, with the
// single in-flight operation allowed to be either fully applied or fully
// absent.
//
// A flight recorder (obs/flight_recorder.hpp) rides along in full-
// fidelity mode over a sidecar sub-span of the same ShadowPM, sized to
// wrap several times, so every crash point × eviction image also checks
// the recorder's own commit-word protocol: a scanned image may hold old,
// new or empty slots, but NEVER a torn record.
//
// The recovery-derived cases (`_R`: CountMode::kRecoveryOnly, the durable
// maps' mode) store the count and checksum words without persisting them,
// then end the run the way a clean shutdown does: seal() and a persisted
// clean-mark word. They crash at EVERY persistence event, seal()
// included. An image without the clean mark must recover to the oracle;
// an image with it must already hold an exact count and checksums that
// all verify — the order seal → fence → clean mark is what guarantees it.
//
// The same-line cases (`_S`: kRecoveryOnly plus CommitOrder::kSameLine,
// the durable maps' protocol) run the same sweep under the x86 in-line
// persist order, CrashMode::kLinePrefix, plus the two extremes. A
// negative control runs that workload under kRandomEviction, which may
// persist a line's commit word without its payload, and must find an
// image that breaks the oracle: the `_S` cases pass because of the
// in-line order, not because the model is too weak to see a torn cell.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "hash/any_table.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "obs/flight_recorder.hpp"
#include "trace/trace_file.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

using nvm::CrashMode;
using nvm::ShadowPM;
using nvm::SimulatedCrash;

struct FuzzCase {
  Scheme scheme;
  bool with_wal;
  u64 seed;
  bool wide = false;  ///< 32-byte cells (Key128 + tag commit protocol)
  bool crc = false;   ///< per-group checksums (rebuilt by recovery)
  /// Group hashing only: CountMode::kRecoveryOnly, sealed + marked clean
  /// at the end of the run, every persistence event a crash point.
  bool recovery_only = false;
  /// With recovery_only: CommitOrder::kSameLine, crash images drawn from
  /// CrashMode::kLinePrefix.
  bool same_line = false;
  /// Fills the tail padding with zeros: gtest prints the object's bytes
  /// into the test names, which must not vary from run to run.
  u8 zero_tail[4] = {};
};
static_assert(sizeof(FuzzCase) == 24, "zero_tail must cover the tail padding");

/// Value of the clean-mark word a recovery-only run persists after seal().
constexpr u64 kCleanMark = 0x636c65616eull;  // "clean"

template <class Cell>
using RecoveryOnlyTable = GroupHashTable<Cell, ShadowPM>;

template <class Cell>
using RecoveryOnlyAdapter = detail::TableAdapter<RecoveryOnlyTable<Cell>, ShadowPM>;

/// A group-hashing table in CountMode::kRecoveryOnly behind the AnyTable
/// interface, with make_table's geometry for `cfg`.
template <class Cell>
std::unique_ptr<AnyTable<ShadowPM>> make_recovery_only(ShadowPM& pm, std::span<std::byte> mem,
                                                       const TableConfig& cfg, bool format,
                                                       CommitOrder order) {
  using T = RecoveryOnlyTable<Cell>;
  const typename T::Params p{.level_cells = (u64{1} << cfg.total_cells_log2) / 2,
                             .group_size = cfg.group_size,
                             .seed = cfg.seed1,
                             .count_mode = CountMode::kRecoveryOnly,
                             .group_crc = cfg.group_crc,
                             .commit_order = order};
  const auto bytes = mem.first(T::required_bytes(p));
  T table = format ? T(pm, bytes, p, /*format=*/true)
                   : T::attach(pm, bytes, CountMode::kRecoveryOnly, order);
  return std::make_unique<RecoveryOnlyAdapter<Cell>>("group", pm, std::move(table), nullptr);
}

std::string case_name(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = scheme_name(info.param.scheme);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  name += info.param.with_wal ? "_L" : "";
  name += info.param.wide ? "_W" : "";
  name += info.param.crc ? "_C" : "";
  if (info.param.recovery_only) name += info.param.same_line ? "_S" : "_R";
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

class CrashFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  TableConfig config() const {
    TableConfig cfg;
    cfg.scheme = GetParam().scheme;
    cfg.total_cells_log2 = 8;
    cfg.group_size = 16;
    cfg.with_wal = GetParam().with_wal;
    cfg.wal_records = 256;
    cfg.wide_cells = GetParam().wide;
    cfg.group_crc = GetParam().crc;
    return cfg;
  }

  std::unique_ptr<AnyTable<ShadowPM>> open_table(ShadowPM& pm, std::span<std::byte> mem,
                                                 bool format) const {
    if (!GetParam().recovery_only) return make_table(pm, mem, config(), format);
    const CommitOrder order =
        GetParam().same_line ? CommitOrder::kSameLine : CommitOrder::kFenced;
    return GetParam().wide ? make_recovery_only<Cell32>(pm, mem, config(), format, order)
                           : make_recovery_only<Cell16>(pm, mem, config(), format, order);
  }

  /// Runs fn on the GroupHashTable behind a recovery-only case's table.
  template <class Fn>
  void with_group_table(AnyTable<ShadowPM>& table, Fn&& fn) const {
    if (GetParam().wide) {
      fn(dynamic_cast<RecoveryOnlyAdapter<Cell32>&>(table).inner());
    } else {
      fn(dynamic_cast<RecoveryOnlyAdapter<Cell16>&>(table).inner());
    }
  }

  trace::OpTrace make_ops() const {
    const trace::Workload w = trace::make_random_num(80, GetParam().seed);
    return trace::make_op_trace(w, 30, 50, 0.2, 0.3, GetParam().seed * 7 + 1);
  }

  /// Executes ops until a crash fires (or all complete). Records the
  /// event count at the END of each completed op.
  struct RunResult {
    std::vector<u64> op_end_events;
    u64 end_event = 0;  ///< after the seal and clean mark (recovery-only runs)
    bool crashed = false;
    usize ops_completed = 0;
  };

  /// Small flight geometry (1 ring × 64 slots) so the ~160 records of a
  /// full workload wrap the ring and exercise slot invalidation.
  static constexpr u32 kFlightRings = 1;
  static constexpr u32 kFlightSlots = 64;

  /// One region holding the table, the clean-mark word (a cacheline of
  /// its own after the table) and the flight sidecar.
  struct Layout {
    nvm::NvmRegion region;
    std::span<std::byte> all;
    std::span<std::byte> mem;
    u64* clean_mark = nullptr;
    std::span<std::byte> flight_mem;
  };

  Layout make_layout() const {
    const usize bytes = table_required_bytes(config());
    const usize mark_offset = round_up(bytes, kCachelineSize);
    const usize table_span = round_up(mark_offset + kCachelineSize, 4096);
    const usize flight_bytes = obs::flight_required_bytes(kFlightRings, kFlightSlots);
    Layout l;
    l.region = nvm::NvmRegion::create_anonymous(table_span + round_up(flight_bytes, 4096));
    l.all = l.region.bytes();
    l.mem = l.all.first(round_up(bytes, 8));
    l.clean_mark = reinterpret_cast<u64*>(l.all.data() + mark_offset);
    l.flight_mem = l.all.subspan(table_span, flight_bytes);
    return l;
  }

  /// The oracle state after the first `completed` ops.
  static std::unordered_map<u64, u64> oracle_after(const trace::OpTrace& ops,
                                                   usize completed) {
    std::unordered_map<u64, u64> oracle;
    for (usize i = 0; i < completed; ++i) {
      const trace::TraceOp& op = ops.ops[i];
      if (op.type == trace::OpType::kInsert) oracle[op.key.lo] = op.value;
      if (op.type == trace::OpType::kDelete) oracle.erase(op.key.lo);
    }
    return oracle;
  }

  RunResult run(ShadowPM& pm, std::span<std::byte> mem, std::span<std::byte> flight_mem,
                u64* clean_mark, const trace::OpTrace& ops, u64 crash_at) {
    pm.crash_at_event(ShadowPM::no_crash());
    auto table = open_table(pm, mem, /*format=*/true);
    // Full fidelity: every op leaves records, so every crash point lands
    // near in-progress flight writes.
    obs::BasicFlightRecorder<ShadowPM> flight(pm, flight_mem, kFlightRings, kFlightSlots);
    flight.set_mode(obs::FlightMode::kFull);
    table->attach_flight(&flight);
    pm.crash_at_event(crash_at);
    RunResult r;
    try {
      for (const trace::TraceOp& op : ops.ops) {
        switch (op.type) {
          case trace::OpType::kInsert:
            EXPECT_TRUE(table->insert(op.key, op.value));
            break;
          case trace::OpType::kDelete:
            EXPECT_TRUE(table->erase(op.key));
            break;
          case trace::OpType::kQuery:
            EXPECT_TRUE(table->find(op.key).has_value());
            break;
        }
        r.op_end_events.push_back(pm.event_count());
        r.ops_completed++;
      }
      if (GetParam().recovery_only) {
        // Clean shutdown: seal, then the clean mark.
        with_group_table(*table, [](auto& t) { t.seal(); });
        pm.atomic_store_u64(clean_mark, kCleanMark);
        pm.persist(clean_mark, sizeof(u64));
        r.end_event = pm.event_count();
      }
    } catch (const SimulatedCrash&) {
      r.crashed = true;
    }
    pm.crash_at_event(ShadowPM::no_crash());
    return r;
  }
};

TEST_P(CrashFuzz, RandomCrashPointsRecoverToOracleState) {
  const trace::OpTrace ops = make_ops();
  const bool recovery_only = GetParam().recovery_only;
  const Layout layout = make_layout();
  const auto [all, mem, clean_mark, flight_mem] =
      std::tuple(layout.all, layout.mem, layout.clean_mark, layout.flight_mem);

  // Dry run: learn the event timeline.
  ShadowPM dry(all);
  const RunResult timeline = run(dry, mem, flight_mem, clean_mark, ops, ShadowPM::no_crash());
  ASSERT_FALSE(timeline.crashed);
  ASSERT_EQ(timeline.ops_completed, ops.ops.size());
  EXPECT_EQ(dry.dirty_word_count(), 0u);
  const u64 first_event = timeline.op_end_events.empty() ? 0 : 1;
  const u64 total_events =
      recovery_only ? timeline.end_event : timeline.op_end_events.back();

  Xoshiro256 rng(GetParam().seed * 1337 + 11);
  // Recovery-only cases crash at every event; the others at kCrashes
  // random ones.
  const u64 crashes = recovery_only ? total_events - first_event : 12;
  // One crash point leaves a whole SPACE of post-crash images: any subset
  // of the unflushed lines may have been evicted (persisted) before the
  // power died. Sweep several eviction seeds per crash point so a scheme
  // that only survives one lucky eviction order cannot pass.
  const u64 kEvictionSeeds = GetParam().same_line ? 4 : recovery_only ? 2 : 8;
  const CrashMode eviction =
      GetParam().same_line ? CrashMode::kLinePrefix : CrashMode::kRandomEviction;
  u64 clean_images = 0;
  for (u64 trial = 0; trial < crashes; ++trial) {
    const u64 crash_at =
        recovery_only ? first_event + trial
                      : first_event + rng.next_below(total_events - first_event);
    std::fill(all.begin(), all.end(), std::byte{0});
    ShadowPM pm(all);
    const RunResult r = run(pm, mem, flight_mem, clean_mark, ops, crash_at);
    if (!r.crashed) continue;  // crash point fell into formatting; skip

    // Oracle: state after the last completed op; the next op is in flight.
    const std::unordered_map<u64, u64> oracle = oracle_after(ops, r.ops_completed);
    const trace::TraceOp* inflight =
        r.ops_completed < ops.ops.size() ? &ops.ops[r.ops_completed] : nullptr;

    // Materialize every eviction variant BEFORE the first reset: replaying
    // an image and recovering on it mutates the shadow state the images
    // are derived from.
    std::vector<std::vector<std::byte>> images;
    for (u64 ev = 0; ev < kEvictionSeeds; ++ev) {
      images.push_back(
          pm.materialize_crash_image(eviction, crash_at * 97 + trial * 131 + ev));
    }
    if (recovery_only) {
      // The extremes: no unflushed word survived (the count and checksum
      // words hold whatever was last flushed), or every one did (a stored
      // clean mark always reaches media).
      images.push_back(pm.materialize_crash_image(CrashMode::kNothingEvicted));
      images.push_back(pm.materialize_crash_image(CrashMode::kAllEvicted));
    }

    for (u64 ev = 0; ev < images.size(); ++ev) {
      SCOPED_TRACE("crash at " + std::to_string(crash_at) + ", eviction seed " +
                   std::to_string(ev));
      pm.reset_to_image(images[ev]);
      // The crash image's flight sidecar must obey the commit-word
      // protocol: slots are old, new or empty — never torn.
      if (obs::kEnabled) {
        const obs::FlightScan fscan = obs::scan_flight(flight_mem);
        ASSERT_TRUE(fscan.valid_header);
        EXPECT_EQ(fscan.records_torn, 0u)
            << "flight commit-word protocol yielded a torn record";
      }
      auto table = open_table(pm, mem, /*format=*/false);
      if (*clean_mark == kCleanMark) {
        // The clean mark reached media, so every op completed and the
        // seal's fence retired before it: trust the words, no recovery.
        ASSERT_TRUE(recovery_only);
        ASSERT_EQ(inflight, nullptr);
        clean_images++;
        EXPECT_EQ(table->count(), oracle.size()) << "sealed count is not exact";
        const ScrubReport scrub = table->scrub();
        EXPECT_EQ(scrub.crc_mismatches, 0u) << "sealed checksums do not verify";
        EXPECT_EQ(scrub.groups_quarantined, 0u);
        for (const auto& [k, v] : oracle) {
          const auto found = table->find(Key128{k, 0});
          ASSERT_TRUE(found.has_value()) << "lost committed key " << k;
          EXPECT_EQ(*found, v);
        }
        continue;
      }
      const auto report = table->recover();

      u64 present = 0;
      for (const auto& [k, v] : oracle) {
        if (inflight != nullptr && inflight->key.lo == k) continue;  // checked below
        const auto found = table->find(Key128{k, 0});
        ASSERT_TRUE(found.has_value()) << "lost committed key " << k;
        EXPECT_EQ(*found, v);
        present++;
      }
      if (inflight != nullptr) {
        const u64 k = inflight->key.lo;
        const auto found = table->find(Key128{k, 0});
        const auto it = oracle.find(k);
        switch (inflight->type) {
          case trace::OpType::kInsert:
            // Absent, or fully inserted with the op's value.
            if (found.has_value()) {
              EXPECT_EQ(*found, inflight->value);
            }
            break;
          case trace::OpType::kDelete:
            // Still present with the pre-op value, or gone.
            if (found.has_value()) {
              ASSERT_NE(it, oracle.end());
              EXPECT_EQ(*found, it->second);
            }
            break;
          case trace::OpType::kQuery:
            // Queries mutate nothing: the key must be exactly as committed.
            ASSERT_EQ(found.has_value(), it != oracle.end());
            if (found.has_value()) {
              EXPECT_EQ(*found, it->second);
            }
            break;
        }
        present += found.has_value() ? 1 : 0;
      }
      EXPECT_EQ(table->count(), present) << "count mismatch";
      EXPECT_EQ(report.recovered_count, present);
    }
  }
  // The sweep must reach images that carry the clean mark: a crash at its
  // persist event, once its store was evicted to media.
  if (recovery_only) {
    EXPECT_GT(clean_images, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CrashFuzz,
    ::testing::Values(FuzzCase{Scheme::kGroup, false, 1}, FuzzCase{Scheme::kGroup, false, 2},
                      FuzzCase{Scheme::kGroup, false, 3},
                      FuzzCase{Scheme::kGroup2H, false, 1},
                      FuzzCase{Scheme::kGroup2H, false, 2},
                      FuzzCase{Scheme::kGroup2H, false, 3},
                      FuzzCase{Scheme::kGroup2H, true, 1},
                      FuzzCase{Scheme::kGroup, true, 1},
                      FuzzCase{Scheme::kLinear, true, 1}, FuzzCase{Scheme::kLinear, true, 2},
                      FuzzCase{Scheme::kPfht, true, 1}, FuzzCase{Scheme::kPath, true, 1},
                      // Wide (Key128) cells: the tag-based commit word has
                      // its own torn-state space; fuzz it on both group
                      // variants (these feed the string map's Cell32 path).
                      FuzzCase{Scheme::kGroup, false, 1, true},
                      FuzzCase{Scheme::kGroup, false, 2, true},
                      FuzzCase{Scheme::kGroup2H, false, 1, true},
                      FuzzCase{Scheme::kGroup2H, false, 2, true},
                      // Per-group checksums: the checksum store is NOT
                      // failure-atomic with the cell commit, so recovery
                      // must rebuild a consistent state from every
                      // crash point × eviction order.
                      FuzzCase{Scheme::kGroup, false, 1, false, true},
                      FuzzCase{Scheme::kGroup, false, 2, false, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, true},
                      // Recovery-derived count and checksum words (the
                      // durable maps' mode), every crash point, seal()
                      // and the clean mark included.
                      FuzzCase{Scheme::kGroup, false, 1, false, false, true},
                      FuzzCase{Scheme::kGroup, false, 2, false, false, true},
                      FuzzCase{Scheme::kGroup, false, 1, false, true, true},
                      FuzzCase{Scheme::kGroup, false, 2, false, true, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, false, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, true, true},
                      // Same-line commit (the durable maps' protocol)
                      // under the in-line prefix model, every crash point.
                      FuzzCase{Scheme::kGroup, false, 1, false, false, true, true},
                      FuzzCase{Scheme::kGroup, false, 2, false, false, true, true},
                      FuzzCase{Scheme::kGroup, false, 1, false, true, true, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, false, true, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, true, true, true}),
    case_name);

// ---------------------------------------------------------------------------
// Negative control: the same-line protocol under arbitrary eviction
// ---------------------------------------------------------------------------

/// Does the recovered table hold exactly what the oracle allows? Every
/// committed key with its value; the in-flight op's key before or after
/// the op. Unlike the sweep above, reports instead of asserting.
bool matches_oracle(AnyTable<ShadowPM>& table, const std::unordered_map<u64, u64>& oracle,
                    const trace::TraceOp* inflight) {
  for (const auto& [k, v] : oracle) {
    if (inflight != nullptr && inflight->key.lo == k) continue;
    if (table.find(Key128{k, 0}) != std::optional<u64>(v)) return false;
  }
  if (inflight == nullptr) return true;
  const std::optional<u64> found = table.find(inflight->key);
  if (!found.has_value()) return inflight->type != trace::OpType::kQuery;
  const auto it = oracle.find(inflight->key.lo);
  const bool before = it != oracle.end() && *found == it->second;
  const bool after = inflight->type == trace::OpType::kInsert && *found == inflight->value;
  return before || after;
}

class SameLineNegativeControl : public CrashFuzz {};

/// kRandomEviction may persist a cell's commit word without the payload
/// stored before it in the same line, which x86 never does. So the `_S`
/// workload must break the oracle on some image here: a committed cell
/// with a torn payload. This is what makes the kLinePrefix sweep a test
/// of the in-line order rather than of nothing.
TEST_P(SameLineNegativeControl, RandomEvictionBreaksTheOracle) {
  ASSERT_TRUE(GetParam().recovery_only && GetParam().same_line);
  const trace::OpTrace ops = make_ops();
  const Layout layout = make_layout();
  const auto [all, mem, clean_mark, flight_mem] =
      std::tuple(layout.all, layout.mem, layout.clean_mark, layout.flight_mem);

  ShadowPM dry(all);
  const RunResult timeline = run(dry, mem, flight_mem, clean_mark, ops, ShadowPM::no_crash());
  ASSERT_FALSE(timeline.crashed);

  u64 images_checked = 0;
  u64 broken = 0;
  for (u64 crash_at = 1; crash_at < timeline.end_event && broken == 0; ++crash_at) {
    std::fill(all.begin(), all.end(), std::byte{0});
    ShadowPM pm(all);
    const RunResult r = run(pm, mem, flight_mem, clean_mark, ops, crash_at);
    if (!r.crashed) continue;
    const std::unordered_map<u64, u64> oracle = oracle_after(ops, r.ops_completed);
    const trace::TraceOp* inflight =
        r.ops_completed < ops.ops.size() ? &ops.ops[r.ops_completed] : nullptr;
    std::vector<std::vector<std::byte>> images;
    for (u64 ev = 0; ev < 8; ++ev) {
      images.push_back(
          pm.materialize_crash_image(CrashMode::kRandomEviction, crash_at * 97 + ev));
    }
    for (const auto& image : images) {
      pm.reset_to_image(image);
      if (*clean_mark == kCleanMark) continue;
      auto table = open_table(pm, mem, /*format=*/false);
      table->recover();
      images_checked++;
      if (!matches_oracle(*table, oracle, inflight)) broken++;
    }
  }
  EXPECT_GT(broken, 0u) << "no torn same-line cell in " << images_checked
                        << " arbitrary-eviction images: the control is vacuous";
}

INSTANTIATE_TEST_SUITE_P(SameLine, SameLineNegativeControl,
                         ::testing::Values(FuzzCase{Scheme::kGroup, false, 1, false, false,
                                                    true, true}),
                         case_name);

}  // namespace
}  // namespace gh::hash
