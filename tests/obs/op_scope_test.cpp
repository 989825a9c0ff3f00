// obs::OpScope: one sampling decision per op feeding the latency
// histogram, the phase scratch and the flight recorder. Pins phase
// attribution of nested ops through a real map, the unwind contract
// (scratch released, no latency sample, no flight finish edge) and the
// flight recorder's sampling rates.
#include "obs/op_scope.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/group_hash_map.hpp"
#include "nvm/direct_pm.hpp"

namespace gh::obs {
namespace {

/// Sinks over a heap flight box (1 ring × 64 slots, zero-latency
/// DirectPM), a latency recorder and a phase accumulator.
struct Rig {
  static constexpr u32 kSlots = 64;

  explicit Rig(FlightMode mode)
      : mem(flight_required_bytes(1, kSlots)), flight(pm, {mem.data(), mem.size()}, 1, kSlots) {
    flight.set_mode(mode);
    sinks.latency = &latency;
    sinks.phases = &phases;
    sinks.flight = &flight;
  }

  [[nodiscard]] FlightScan scan() const { return scan_flight({mem.data(), mem.size()}); }

  nvm::DirectPM pm{nvm::PersistConfig::counting_only()};
  std::vector<std::byte> mem;
  FlightRecorder flight;
  OpRecorder latency;
  PhaseAccum phases;
  OpSinks sinks;
};

usize phase(Phase p) { return static_cast<usize>(p); }

TEST(OpScope, NestedExpandBooksPhasesToTheEnclosingPut) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  clear_thread_trace();
  auto map = GroupHashMap::create_in_memory({.initial_cells = 64, .latency_sample_shift = 0});
  u64 puts = 0;
  while (map.snapshot().lifecycle.expansions == 0) {
    ++puts;
    map.put(puts, puts);
    ASSERT_LT(puts, 100000u) << "map never expanded";
  }
  const Snapshot s = map.snapshot();
  // Every put owned its phase scratch; the expand inside one of them was
  // timed on its own but attributed nothing — the put booked it.
  EXPECT_EQ(s.phases.of(OpKind::kInsert).samples, puts);
  EXPECT_EQ(s.latency.expand.count, 1u);
  EXPECT_EQ(s.phases.of(OpKind::kExpand).samples, 0u);
  EXPECT_GT(s.phases.of(OpKind::kInsert).phase_ns[phase(Phase::kPersist)], 0u);
}

TEST(OpScope, NestedHelpAlongBooksMigrateHelpToThePut) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  clear_thread_trace();
  // Small groups: a resize spans more groups than the one the starting
  // put drains inline, so later puts have a migration to help.
  auto map = GroupHashMap::create_in_memory({.initial_cells = 256,
                                             .group_size = 8,
                                             .latency_sample_shift = 0,
                                             .migrate_groups_per_op = 1});
  u64 puts = 0;
  while (map.snapshot().migration.help_steps == 0) {
    ++puts;
    map.put(puts, puts);
    ASSERT_LT(puts, 100000u) << "no put ever helped a migration along";
  }
  const Snapshot s = map.snapshot();
  EXPECT_EQ(s.phases.of(OpKind::kInsert).samples, puts);
  EXPECT_GT(s.phases.of(OpKind::kInsert).phase_ns[phase(Phase::kMigrateHelp)], 0u);
  // The help-along scope timed itself inside the put that owns the scratch.
  EXPECT_GT(s.latency.migrate.count, 0u);
  EXPECT_EQ(s.phases.of(OpKind::kMigrate).samples, 0u);
}

TEST(OpScope, UnwindingReleasesScratchAndWritesNoFinishEdge) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  clear_thread_trace();
  Rig rig(FlightMode::kFull);
  rig.sinks.gate.set_shift(0);
  EXPECT_THROW(
      {
        OpScope op(rig.sinks, OpKind::kInsert, 7);
        throw std::runtime_error("boom");
      },
      std::runtime_error);
  EXPECT_FALSE(detail::t_phase.collecting) << "the unwound op must free the phase scratch";
  EXPECT_EQ(rig.latency.of(OpKind::kInsert).count(), 0u);
  EXPECT_EQ(rig.phases.snapshot().of(OpKind::kInsert).samples, 0u);
  const FlightScan s = rig.scan();
  EXPECT_EQ(s.records_valid, 1u) << "start edge only";
  ASSERT_EQ(s.in_flight.size(), 1u);
  EXPECT_EQ(s.in_flight[0].key_hash, 7u);

  // The thread's next op collects and finishes normally.
  { OpScope op(rig.sinks, OpKind::kFind, 8); }
  EXPECT_EQ(rig.latency.of(OpKind::kFind).count(), 1u);
  EXPECT_EQ(rig.phases.snapshot().of(OpKind::kFind).samples, 1u);
  EXPECT_EQ(rig.scan().records_valid, 3u);
}

/// Records journaled by `ops` data ops (two per journaled op), each
/// optionally followed by a nested scope that writes no flight edge — the
/// shape of a put and its help-along during an online resize.
u64 records_after(FlightMode mode, u64 ops, bool nested) {
  Rig rig(mode);
  for (u64 i = 0; i < ops; ++i) {
    OpScope op(rig.sinks, OpKind::kInsert, i);
    if (nested) {
      OpScope help(rig.sinks, OpKind::kMigrate, 0, FlightEdge::kNone);
    }
  }
  return rig.scan().records_valid;
}

TEST(OpScope, FullJournalsEveryDataOpSampledOneIn128) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  EXPECT_EQ(records_after(FlightMode::kFull, 20, false), 40u);
  constexpr u64 kOps = u64{16} << kFlightSampleShift;  // 16 journaled ops fit the ring
  EXPECT_EQ(records_after(FlightMode::kSampled, kOps, false), 2 * (kOps >> kFlightSampleShift));
  EXPECT_EQ(records_after(FlightMode::kSampled, kOps, true), 2 * (kOps >> kFlightSampleShift));
  // Lifecycle ops bypass the sampling.
  Rig rig(FlightMode::kSampled);
  for (int i = 0; i < 3; ++i) {
    OpScope op(rig.sinks, OpKind::kScrub, 0, FlightEdge::kAlways);
  }
  EXPECT_EQ(rig.scan().records_valid, 6u);
}

}  // namespace
}  // namespace gh::obs
