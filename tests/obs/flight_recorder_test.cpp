// Flight recorder unit tests: commit-word encoding, the emit protocol
// over a real PM policy, offline scan round-trips, torn-record
// detection, ring wrap + slot invalidation, in-flight reconstruction,
// and the timeline/trace exports. Crash-interleaved coverage lives in
// crash_fuzz_test.cpp (ShadowPM eviction images) and the publish-crash
// suites; this file pins the protocol's single-process semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "nvm/direct_pm.hpp"
#include "obs/flight_recorder.hpp"

namespace gh::obs {
namespace {

using nvm::DirectPM;

/// A recorder over heap bytes with a zero-latency DirectPM — the emit
/// path is identical to the production sidecar, minus the flush spin.
struct Box {
  static constexpr u32 kRings = 2;
  static constexpr u32 kSlots = 64;

  Box() : mem(flight_required_bytes(kRings, kSlots)) {}

  std::span<std::byte> bytes() { return {mem.data(), mem.size()}; }
  [[nodiscard]] std::span<const std::byte> cbytes() const {
    return {mem.data(), mem.size()};
  }

  BasicFlightRecorder<DirectPM> make() {
    return BasicFlightRecorder<DirectPM>(pm, bytes(), kRings, kSlots);
  }

  DirectPM pm{nvm::PersistConfig::counting_only()};
  std::vector<std::byte> mem;
};

TEST(FlightCommitWord, EncodesAndChecksAllFields) {
  const u16 crc = flight_checksum(0xdeadbeef, 42, 1234567);
  const u64 w = flight_encode_commit(OpKind::kCompact, FlightPhase::kPublish, 3, crc);
  EXPECT_EQ(w >> 48, kFlightCommitMagic);
  EXPECT_EQ((w >> 32) & 0xffff, crc);
  EXPECT_EQ((w >> 16) & 0xffff, 3u);
  EXPECT_EQ((w >> 8) & 0xff, static_cast<u64>(FlightPhase::kPublish));
  EXPECT_EQ(w & 0xff, static_cast<u64>(OpKind::kCompact));
  // The checksum must actually depend on every payload word.
  EXPECT_NE(crc, flight_checksum(0xdeadbef0, 42, 1234567));
  EXPECT_NE(crc, flight_checksum(0xdeadbeef, 43, 1234567));
  EXPECT_NE(crc, flight_checksum(0xdeadbeef, 42, 1234568));
}

TEST(FlightGeometry, RequiredBytes) {
  EXPECT_EQ(flight_required_bytes(1, 32), kFlightHeaderBytes + 32 * sizeof(FlightRecord));
  EXPECT_EQ(flight_required_bytes(),
            kFlightHeaderBytes +
                usize{kFlightRings} * kFlightSlotsPerRing * sizeof(FlightRecord));
}

TEST(FlightScanOffline, RejectsGarbage) {
  // The offline readers stay live even under GH_OBS_OFF (gh_stats must
  // be able to inspect foreign sidecars), so no kEnabled guard here.
  std::vector<std::byte> zeros(flight_required_bytes(1, 32), std::byte{0});
  EXPECT_FALSE(scan_flight(zeros).valid_header);

  std::vector<std::byte> tiny(128, std::byte{0});
  EXPECT_FALSE(scan_flight(tiny).valid_header);

  // Valid magic but a corrupt header CRC must also be rejected.
  FlightHeader h;
  h.ring_count = 1;
  h.slots_per_ring = 32;
  h.crc = h.compute_crc() ^ 1;
  std::memcpy(zeros.data(), &h, sizeof(h));
  EXPECT_FALSE(scan_flight(zeros).valid_header);
}

TEST(FlightRecorderTest, FreshBoxScansEmpty) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  const FlightScan s = scan_flight(box.cbytes());
  ASSERT_TRUE(s.valid_header);
  EXPECT_EQ(s.ring_count, Box::kRings);
  EXPECT_EQ(s.slots_per_ring, Box::kSlots);
  EXPECT_EQ(s.slots_scanned, u64{Box::kRings} * Box::kSlots);
  EXPECT_EQ(s.records_valid, 0u);
  EXPECT_EQ(s.records_torn, 0u);
  EXPECT_EQ(s.records_empty, s.slots_scanned);
  EXPECT_TRUE(s.in_flight.empty());
}

TEST(FlightRecorderTest, EmitScanRoundTrip) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  rec.set_mode(FlightMode::kFull);

  const u64 t = rec.op_begin(OpKind::kInsert, /*key_hash=*/0xabc, /*sampled=*/true);
  ASSERT_NE(t, 0u);
  rec.op_end(t, OpKind::kInsert, 0xabc);

  const FlightScan s = scan_flight(box.cbytes());
  ASSERT_TRUE(s.valid_header);
  ASSERT_EQ(s.records_valid, 2u);
  EXPECT_EQ(s.records_torn, 0u);
  EXPECT_TRUE(s.in_flight.empty()) << "finished op must not read as in flight";
  for (const FlightRecordView& r : s.records) {
    EXPECT_EQ(r.kind, OpKind::kInsert);
    EXPECT_EQ(r.key_hash, 0xabcu);
    EXPECT_EQ(r.seqno, t);
  }
  EXPECT_EQ(s.records[0].phase, FlightPhase::kStart);
  EXPECT_EQ(s.records[1].phase, FlightPhase::kFinish);
  // tsc must be monotone across the op's records.
  EXPECT_LE(s.records[0].tsc, s.records[1].tsc);
}

TEST(FlightRecorderTest, InFlightReconstruction) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  rec.set_mode(FlightMode::kFull);

  // Op A: completed. Op B: died after start. Op C: died mid-publish.
  const u64 a = rec.op_begin_always(OpKind::kInsert, 1);
  rec.op_end(a, OpKind::kInsert, 1);
  const u64 b = rec.op_begin_always(OpKind::kErase, 2);
  const u64 c = rec.op_begin_always(OpKind::kExpand, 3);
  rec.op_mark(c, OpKind::kExpand, 3);
  // A standalone event: journaled, but never in flight.
  rec.event(FlightEvent::kQuarantine, OpKind::kScrub);

  const FlightScan s = scan_flight(box.cbytes());
  ASSERT_TRUE(s.valid_header);
  EXPECT_EQ(s.records_torn, 0u);
  ASSERT_EQ(s.in_flight.size(), 2u);
  // in_flight is seqno-ordered: B (start only) then C (reached publish).
  EXPECT_EQ(s.in_flight[0].seqno, b);
  EXPECT_EQ(s.in_flight[0].kind, OpKind::kErase);
  EXPECT_EQ(s.in_flight[0].phase, FlightPhase::kStart);
  EXPECT_EQ(s.in_flight[0].key_hash, 2u);
  EXPECT_EQ(s.in_flight[1].seqno, c);
  EXPECT_EQ(s.in_flight[1].kind, OpKind::kExpand);
  EXPECT_EQ(s.in_flight[1].phase, FlightPhase::kPublish) << "deepest phase wins";
}

TEST(FlightRecorderTest, TornRecordDetection) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  const u64 t = rec.op_begin_always(OpKind::kInsert, 77);
  rec.op_end(t, OpKind::kInsert, 77);
  ASSERT_EQ(scan_flight(box.cbytes()).records_valid, 2u);

  // Flip one payload byte of a committed record WITHOUT updating the
  // commit word: the checksum no longer matches — exactly the state the
  // emit protocol exists to prevent.
  auto* rings = reinterpret_cast<FlightRecord*>(box.mem.data() + kFlightHeaderBytes);
  FlightRecord* victim = nullptr;
  for (usize i = 0; i < usize{Box::kRings} * Box::kSlots; ++i) {
    if (rings[i].commit != 0) {
      victim = &rings[i];
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->key_hash ^= 0xff;
  FlightScan s = scan_flight(box.cbytes());
  EXPECT_EQ(s.records_torn, 1u);
  EXPECT_EQ(s.records_valid, 1u);
  victim->key_hash ^= 0xff;  // restore

  // A bogus commit magic is torn too, whatever the payload says.
  victim->commit = (victim->commit & ~(0xffffull << 48)) | (0xBAD0ull << 48);
  s = scan_flight(box.cbytes());
  EXPECT_EQ(s.records_torn, 1u);
}

TEST(FlightRecorderTest, RingWrapNeverTearsAndKeepsNewestRecords) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  rec.set_mode(FlightMode::kFull);

  // 2 records per op × 200 ops = 400 records over 128 slots: each ring
  // wraps several times, exercising the batched invalidation path.
  constexpr u64 kOps = 200;
  u64 last = 0;
  for (u64 i = 1; i <= kOps; ++i) {
    last = rec.op_begin(OpKind::kInsert, i, /*sampled=*/true);
    ASSERT_NE(last, 0u);
    rec.op_end(last, OpKind::kInsert, i);
  }

  const FlightScan s = scan_flight(box.cbytes());
  ASSERT_TRUE(s.valid_header);
  EXPECT_EQ(s.records_torn, 0u);
  EXPECT_GT(s.records_valid, 0u);
  EXPECT_LE(s.records_valid, u64{Box::kRings} * Box::kSlots);
  // Records come back seqno-sorted and the newest op survives the wraps.
  for (usize i = 1; i < s.records.size(); ++i) {
    EXPECT_LE(s.records[i - 1].seqno, s.records[i].seqno);
  }
  ASSERT_FALSE(s.records.empty());
  EXPECT_EQ(s.records.back().seqno, last);
}

TEST(FlightRecorderTest, ModeGatesAndZeroTokens) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();

  rec.set_mode(FlightMode::kOff);
  EXPECT_EQ(rec.op_begin(OpKind::kInsert, 1, /*sampled=*/true), 0u);
  EXPECT_EQ(rec.op_begin_always(OpKind::kExpand), 0u);
  rec.event(FlightEvent::kDegraded, OpKind::kExpand);
  // Edges with token 0 must be no-ops, not crashes.
  rec.op_mark(0, OpKind::kExpand);
  rec.op_end(0, OpKind::kExpand);
  EXPECT_EQ(scan_flight(box.cbytes()).records_valid, 0u);

  // Sampled mode journals no data op its caller did not admit, but still
  // records every lifecycle op.
  rec.set_mode(FlightMode::kSampled);
  EXPECT_EQ(rec.op_begin(OpKind::kInsert, 2, /*sampled=*/false), 0u);
  const u64 t = rec.op_begin_always(OpKind::kRecover);
  ASSERT_NE(t, 0u);
  rec.op_end(t, OpKind::kRecover);
  EXPECT_EQ(scan_flight(box.cbytes()).records_valid, 2u);
}

TEST(FlightRecorderTest, TimelineAndTraceExports) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  auto rec = box.make();
  rec.set_mode(FlightMode::kFull);
  const u64 done = rec.op_begin(OpKind::kInsert, 0x11, /*sampled=*/true);
  rec.op_end(done, OpKind::kInsert, 0x11);
  const u64 hung = rec.op_begin_always(OpKind::kCompact, 0x22);
  rec.op_mark(hung, OpKind::kCompact, 0x22);

  const FlightScan s = scan_flight(box.cbytes());
  const std::string text = flight_timeline_text(s);
  EXPECT_NE(text.find(op_kind_name(OpKind::kCompact)), std::string::npos);
  EXPECT_NE(text.find(flight_phase_name(FlightPhase::kPublish)), std::string::npos);

  const std::string trace = flight_trace_json(s);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The completed insert pairs into an "X" complete event; the compact
  // that never finished must still appear (as an instant).
  EXPECT_NE(trace.find("\"X\""), std::string::npos);
  EXPECT_NE(trace.find(op_kind_name(OpKind::kCompact)), std::string::npos);
}

TEST(FlightRecorderTest, ReconstructionAfterReopenConsumesTheBox) {
  if (!kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  Box box;
  {
    auto rec = box.make();
    rec.set_mode(FlightMode::kFull);
    rec.op_begin_always(OpKind::kExpand, 9);  // dies in flight
  }
  // "Reopen": scan first (forensics), then a new recorder reformats.
  const FlightScan before = scan_flight(box.cbytes());
  ASSERT_EQ(before.in_flight.size(), 1u);
  EXPECT_EQ(before.in_flight[0].kind, OpKind::kExpand);
  auto rec2 = box.make();
  const FlightScan after = scan_flight(box.cbytes());
  ASSERT_TRUE(after.valid_header);
  EXPECT_EQ(after.records_valid, 0u) << "format must wipe the previous run's records";
  EXPECT_TRUE(after.in_flight.empty());
}

}  // namespace
}  // namespace gh::obs
