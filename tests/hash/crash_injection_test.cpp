// Crash-injection verification of the consistency claims (§3.3, §3.5).
//
// For a table pre-filled with committed items, one more operation (insert
// / delete / update) is executed on the ShadowPM crash simulator with a
// simulated power failure injected at EVERY persistence event inside that
// operation, and for each crash point the durable NVM image is
// materialised under three eviction policies (nothing / everything / a
// random subset of dirty 8-byte words — torn cachelines included). After
// rebooting from the image and running recovery, the invariants are:
//
//   1. every previously committed item is present with its exact value;
//   2. the in-flight operation is atomic: all-or-nothing, never torn;
//   3. the recomputed `count` equals the number of reachable items;
//   4. recovery has scrubbed all garbage (a second recovery is a no-op).
//
// Group hashing is tested with its bare 8-byte-commit protocol (the
// paper's claim: no logging needed); the baselines are tested in their
// "-L" logged variants (the paper's consistency-matched comparison).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "hash/any_table.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "trace/workload.hpp"

namespace gh::hash {
namespace {

using nvm::CrashMode;
using nvm::ShadowPM;
using nvm::SimulatedCrash;

enum class OpKind { kInsert, kErase, kUpdate };

struct CrashCase {
  Scheme scheme;
  bool with_wal;
  bool wide;
  OpKind op;
};

std::string case_name(const ::testing::TestParamInfo<CrashCase>& info) {
  const CrashCase& c = info.param;
  std::string name = scheme_name(c.scheme);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  name += c.with_wal ? "_L" : "";
  name += c.wide ? "_wide" : "";
  switch (c.op) {
    case OpKind::kInsert:
      name += "_insert";
      break;
    case OpKind::kErase:
      name += "_erase";
      break;
    case OpKind::kUpdate:
      name += "_update";
      break;
  }
  return name;
}

constexpr usize kPrefill = 24;
constexpr u64 kUpdatedValue = 0x75fdbca987654321ull;

class CrashInjection : public ::testing::TestWithParam<CrashCase> {
 protected:
  TableConfig config() const {
    const CrashCase& c = GetParam();
    TableConfig cfg;
    cfg.scheme = c.scheme;
    cfg.total_cells_log2 = 8;  // small table => recovery scans are cheap
    cfg.group_size = 16;
    cfg.wide_cells = c.wide;
    cfg.with_wal = c.with_wal;
    cfg.wal_records = 256;
    return cfg;
  }

  Key128 key_at(usize i) const {
    // Index 0 is reserved as the in-flight insert target.
    const u64 lo = (i + 1) * 0x9e3779b9ull;
    return Key128{lo & Cell16::kMaxKey, GetParam().wide ? (i + 1) * 0x100000001b3ull : 0};
  }

  u64 value_of(const Key128& k) const { return trace::value_for_key(k); }

  /// Runs prefill + the parameterized op, optionally crashing. Returns
  /// the events consumed and whether the crash fired.
  struct RunResult {
    u64 events_at_op_start = 0;
    u64 events_total = 0;
    bool crashed = false;
  };

  RunResult run(ShadowPM& pm, std::span<std::byte> mem, u64 crash_at) {
    pm.crash_at_event(ShadowPM::no_crash());
    auto table = make_table(pm, mem, config(), /*format=*/true);
    for (usize i = 1; i <= kPrefill; ++i) {
      EXPECT_TRUE(table->insert(key_at(i), value_of(key_at(i))));
    }
    RunResult result;
    result.events_at_op_start = pm.event_count();
    pm.crash_at_event(crash_at);
    try {
      switch (GetParam().op) {
        case OpKind::kInsert:
          EXPECT_TRUE(table->insert(key_at(0), value_of(key_at(0))));
          break;
        case OpKind::kErase:
          EXPECT_TRUE(table->erase(key_at(1)));
          break;
        case OpKind::kUpdate: {
          // Only the group-hashing table exposes update(); reach it via
          // the concrete type.
          auto* adapter = dynamic_cast<detail::TableAdapter<
              GroupHashTable<Cell16, ShadowPM>, ShadowPM>*>(table.get());
          GH_CHECK(adapter != nullptr);
          EXPECT_TRUE(adapter->inner().update(key_at(1).lo, kUpdatedValue));
          break;
        }
      }
    } catch (const SimulatedCrash&) {
      result.crashed = true;
    }
    pm.crash_at_event(ShadowPM::no_crash());
    result.events_total = pm.event_count();
    return result;
  }

  void verify_recovered(std::span<std::byte> mem, ShadowPM& pm) {
    auto table = make_table(pm, mem, config(), /*format=*/false);
    const auto report = table->recover();

    u64 present = 0;
    // Invariant 1: all committed items except the op target survive intact.
    for (usize i = 1; i <= kPrefill; ++i) {
      const Key128 k = key_at(i);
      const auto found = table->find(k);
      if (GetParam().op == OpKind::kErase && i == 1) {
        // Invariant 2 (erase): all-or-nothing.
        if (found.has_value()) {
          EXPECT_EQ(*found, value_of(k));
        }
        present += found.has_value() ? 1 : 0;
        continue;
      }
      if (GetParam().op == OpKind::kUpdate && i == 1) {
        // Invariant 2 (update): old value or new value, nothing else.
        ASSERT_TRUE(found.has_value());
        EXPECT_TRUE(*found == value_of(k) || *found == kUpdatedValue)
            << "torn update: " << *found;
        present += 1;
        continue;
      }
      ASSERT_TRUE(found.has_value()) << "lost committed key " << i;
      EXPECT_EQ(*found, value_of(k)) << "corrupted committed key " << i;
      present += 1;
    }
    if (GetParam().op == OpKind::kInsert) {
      // Invariant 2 (insert): all-or-nothing.
      const auto found = table->find(key_at(0));
      if (found.has_value()) {
        EXPECT_EQ(*found, value_of(key_at(0)));
      }
      present += found.has_value() ? 1 : 0;
    }
    // Invariant 3: count matches what is reachable.
    EXPECT_EQ(table->count(), present);
    EXPECT_EQ(report.recovered_count, present);

    // Invariant 4: recovery is complete — a second pass finds nothing to
    // scrub or roll back.
    const auto second = table->recover();
    EXPECT_EQ(second.cells_scrubbed, 0u);
    EXPECT_EQ(second.wal_records_rolled_back, 0u);
    EXPECT_EQ(second.recovered_count, present);
  }
};

TEST_P(CrashInjection, EveryCrashPointRecoversConsistently) {
  const usize bytes = table_required_bytes(config());
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(round_up(bytes, 4096));
  auto mem = region.bytes().first(round_up(bytes, 8));

  // Dry run to learn the operation's event window.
  ShadowPM dry(mem);
  const RunResult window = run(dry, mem, ShadowPM::no_crash());
  ASSERT_FALSE(window.crashed);
  ASSERT_GT(window.events_total, window.events_at_op_start);

  // After a fully completed run, the structure must have persisted
  // everything it wrote — no dirty words may remain.
  EXPECT_EQ(dry.dirty_word_count(), 0u)
      << "scheme left unflushed NVM writes behind";

  usize points_tested = 0;
  for (u64 crash_at = window.events_at_op_start; crash_at < window.events_total;
       ++crash_at) {
    for (const CrashMode mode :
         {CrashMode::kNothingEvicted, CrashMode::kAllEvicted, CrashMode::kRandomEviction}) {
      // Fresh memory for every replay.
      std::fill(mem.begin(), mem.end(), std::byte{0});
      ShadowPM pm(mem);
      const RunResult r = run(pm, mem, crash_at);
      ASSERT_TRUE(r.crashed) << "crash point " << crash_at << " did not fire";
      const auto image = pm.materialize_crash_image(mode, /*seed=*/crash_at * 31 + 7);
      pm.reset_to_image(image);
      verify_recovered(mem, pm);
      ++points_tested;
    }
  }
  // The op windows are small (an update is just 2 events; inserts and
  // deletes span more) but must be non-trivial.
  EXPECT_GE(points_tested, 3u * 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashInjection,
    ::testing::Values(
        // The contribution: group hashing with NO logging, all three ops,
        // both cell widths.
        CrashCase{Scheme::kGroup, false, false, OpKind::kInsert},
        CrashCase{Scheme::kGroup, false, false, OpKind::kErase},
        CrashCase{Scheme::kGroup, false, false, OpKind::kUpdate},
        CrashCase{Scheme::kGroup, false, true, OpKind::kInsert},
        CrashCase{Scheme::kGroup, false, true, OpKind::kErase},
        // The consistency-matched baselines: undo-logged variants.
        CrashCase{Scheme::kLinear, true, false, OpKind::kInsert},
        CrashCase{Scheme::kLinear, true, false, OpKind::kErase},
        CrashCase{Scheme::kPfht, true, false, OpKind::kInsert},
        CrashCase{Scheme::kPfht, true, false, OpKind::kErase},
        CrashCase{Scheme::kPath, true, false, OpKind::kInsert},
        CrashCase{Scheme::kPath, true, false, OpKind::kErase},
        // Belt-and-braces: group hashing WITH a log must also hold.
        CrashCase{Scheme::kGroup, true, false, OpKind::kInsert},
        CrashCase{Scheme::kGroup, true, false, OpKind::kErase},
        // The §4.4 two-hash variant shares the commit-word protocol.
        CrashCase{Scheme::kGroup2H, false, false, OpKind::kInsert},
        CrashCase{Scheme::kGroup2H, false, false, OpKind::kErase}),
    case_name);

}  // namespace
}  // namespace gh::hash
