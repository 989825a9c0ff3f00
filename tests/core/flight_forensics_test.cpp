// Map-level flight forensics: the `.flight` sidecar's lifecycle around
// create/open/abandon, the reopen-time scan surfacing in-flight ops in
// flight_scan_on_open(), open_recovery_report().in_flight_ops and
// snapshot()/export_json, and the GH_OBS_OFF guarantee that no sidecar
// is ever created. Crash-point-exact in-flight assertions live in
// publish_crash_test.cpp; the emit protocol itself is pinned by
// flight_recorder_test.cpp and crash_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "support/temp_path.hpp"

namespace gh {
namespace {

namespace fs = std::filesystem;

using gh::test::temp_path;

void cleanup(const std::string& path) {
  fs::remove(path);
  fs::remove(path + ".flight");
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

/// Plant a committed-but-unfinished record into an EMPTY slot of an
/// on-disk sidecar, simulating a crash that stranded `kind` mid-`phase`
/// (the live emit path can only be stranded by a real mid-op crash,
/// which the FaultFs publish suites exercise; here we need a
/// deterministic in-flight op without one).
void inject_in_flight(const std::string& flight_path, obs::OpKind kind,
                      obs::FlightPhase phase, u64 seqno, u64 key_hash) {
  std::vector<std::byte> bytes = read_file(flight_path);
  const obs::FlightScan scan = obs::scan_flight(bytes);
  ASSERT_TRUE(scan.valid_header);
  const u64 total = scan.ring_count * scan.slots_per_ring;
  for (u64 s = 0; s < total; ++s) {
    auto* rec = reinterpret_cast<obs::FlightRecord*>(
        bytes.data() + obs::kFlightHeaderBytes + s * sizeof(obs::FlightRecord));
    if (rec->commit != 0) continue;
    rec->key_hash = key_hash;
    rec->seqno = seqno;
    rec->tsc = 1;
    rec->commit = obs::flight_encode_commit(
        kind, phase, static_cast<u32>(s / scan.slots_per_ring),
        obs::flight_checksum(key_hash, seqno, 1));
    std::ofstream out(flight_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return;
  }
  FAIL() << "no empty slot left in " << flight_path;
}

TEST(FlightForensics, SidecarExistsIffObsCompiledIn) {
  const std::string path = temp_path("gh_flight_sidecar.gh");
  cleanup(path);
  auto map = GroupHashMap::create(path, {.initial_cells = 1 << 10});
  map.put(1, 1);
  EXPECT_EQ(fs::exists(path + ".flight"), obs::kEnabled)
      << "sidecar must exist exactly when obs hooks are compiled in";
  map.close();
  // close() keeps the sidecar — it belongs to the map file, not the
  // process — so a later open can read the previous run's box.
  EXPECT_EQ(fs::exists(path + ".flight"), obs::kEnabled);
  cleanup(path);
}

TEST(FlightForensics, ModeOffCreatesNoSidecar) {
  const std::string path = temp_path("gh_flight_off.gh");
  cleanup(path);
  auto map = GroupHashMap::create(
      path, {.initial_cells = 1 << 10, .flight_mode = obs::FlightMode::kOff});
  map.put(1, 1);
  EXPECT_FALSE(fs::exists(path + ".flight"));
  map.close();
  cleanup(path);
}

TEST(FlightForensics, AbandonedSidecarScansCleanOnReopen) {
  if (!obs::kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  const std::string path = temp_path("gh_flight_abandon.gh");
  cleanup(path);
  {
    auto map = GroupHashMap::create(
        path, {.initial_cells = 1 << 10, .flight_mode = obs::FlightMode::kFull});
    for (u64 k = 1; k <= 100; ++k) map.put(k, k);
    map.abandon();  // crash: sidecar left as-is, superblock dirty
  }
  auto map = GroupHashMap::open(path, {.flight_mode = obs::FlightMode::kFull});
  EXPECT_TRUE(map.recovered_on_open());
  const obs::FlightScan& scan = map.flight_scan_on_open();
  ASSERT_TRUE(scan.valid_header);
  EXPECT_GT(scan.records_valid, 0u) << "kFull mode must have journaled the puts";
  EXPECT_EQ(scan.records_torn, 0u);
  // Every put completed before the "crash", so nothing is in flight and
  // the recovery report says so.
  EXPECT_TRUE(scan.in_flight.empty());
  EXPECT_EQ(map.open_recovery_report().in_flight_ops, 0u);
  map.close();
  cleanup(path);
}

TEST(FlightForensics, InFlightOpSurfacesInReportSnapshotAndJson) {
  if (!obs::kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  const std::string path = temp_path("gh_flight_inflight.gh");
  cleanup(path);
  {
    auto map = GroupHashMap::create(
        path, {.initial_cells = 1 << 10, .flight_mode = obs::FlightMode::kFull});
    for (u64 k = 1; k <= 20; ++k) map.put(k, k);
    map.abandon();
  }
  constexpr u64 kSeqno = 1ull << 40;  // past any real op id of the short run
  inject_in_flight(path + ".flight", obs::OpKind::kExpand, obs::FlightPhase::kPublish,
                   kSeqno, /*key_hash=*/0xfeed);

  auto map = GroupHashMap::open(path, {.flight_mode = obs::FlightMode::kFull});
  EXPECT_TRUE(map.recovered_on_open());

  const obs::FlightScan& scan = map.flight_scan_on_open();
  ASSERT_TRUE(scan.valid_header);
  ASSERT_EQ(scan.in_flight.size(), 1u);
  EXPECT_EQ(scan.in_flight[0].kind, obs::OpKind::kExpand);
  EXPECT_EQ(scan.in_flight[0].phase, obs::FlightPhase::kPublish);
  EXPECT_EQ(scan.in_flight[0].seqno, kSeqno);
  EXPECT_EQ(scan.in_flight[0].key_hash, 0xfeedu);
  EXPECT_EQ(map.open_recovery_report().in_flight_ops, 1u);

  // The same forensics must flow through snapshot() and its JSON export.
  obs::Snapshot s = map.snapshot();
  EXPECT_TRUE(s.flight.enabled);
  ASSERT_EQ(s.flight.in_flight_on_open.size(), 1u);
  EXPECT_EQ(s.flight.in_flight_on_open[0].kind, obs::OpKind::kExpand);
  const std::string json = obs::export_json(s);
  std::string error;
  EXPECT_TRUE(obs::validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"in_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"expand\""), std::string::npos);
  EXPECT_NE(json.find("\"publish\""), std::string::npos);
  map.close();
  cleanup(path);
}

TEST(FlightForensics, CleanReopenConsumesTheBox) {
  if (!obs::kEnabled) GTEST_SKIP() << "recorder compiled out (GH_OBS_OFF)";
  const std::string path = temp_path("gh_flight_consume.gh");
  cleanup(path);
  {
    auto map = GroupHashMap::create(
        path, {.initial_cells = 1 << 10, .flight_mode = obs::FlightMode::kFull});
    for (u64 k = 1; k <= 50; ++k) map.put(k, k);
    map.close();
  }
  {
    // First reopen reads the previous run's records…
    auto map = GroupHashMap::open(path, {.flight_mode = obs::FlightMode::kFull});
    EXPECT_FALSE(map.recovered_on_open());
    EXPECT_GT(map.flight_scan_on_open().records_valid, 0u);
    map.close();  // …and this run journaled nothing (no ops), so
  }
  {
    // …the second reopen finds a freshly formatted (empty) box.
    auto map = GroupHashMap::open(path, {.flight_mode = obs::FlightMode::kFull});
    ASSERT_TRUE(map.flight_scan_on_open().valid_header);
    EXPECT_EQ(map.flight_scan_on_open().records_valid, 0u);
    map.close();
  }
  cleanup(path);
}

TEST(FlightForensics, StringMapSidecarAndForensics) {
  const std::string path = temp_path("gh_flight_smap.gh");
  cleanup(path);
  {
    auto map = PersistentStringMap::create(
        path, {.map = {.flight_mode = obs::FlightMode::kFull}});
    for (int k = 0; k < 40; ++k) map.put("key" + std::to_string(k), k);
    EXPECT_EQ(fs::exists(path + ".flight"), obs::kEnabled);
    map.abandon();
  }
  if (!obs::kEnabled) {
    cleanup(path);
    return;
  }
  inject_in_flight(path + ".flight", obs::OpKind::kCompact, obs::FlightPhase::kStart,
                   /*seqno=*/1ull << 40, /*key_hash=*/7);

  auto map = PersistentStringMap::open(path, {.map = {.flight_mode = obs::FlightMode::kFull}});
  EXPECT_TRUE(map.recovered_on_open());
  const obs::FlightScan& scan = map.flight_scan_on_open();
  ASSERT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.records_torn, 0u);
  ASSERT_EQ(scan.in_flight.size(), 1u);
  EXPECT_EQ(scan.in_flight[0].kind, obs::OpKind::kCompact);
  EXPECT_EQ(map.open_recovery_report().in_flight_ops, 1u);
  obs::Snapshot s = map.snapshot();
  EXPECT_TRUE(s.flight.enabled);
  EXPECT_EQ(s.flight.in_flight_on_open.size(), 1u);
  // Data must have survived recovery alongside the forensics.
  for (int k = 0; k < 40; ++k) {
    ASSERT_EQ(map.get("key" + std::to_string(k)), static_cast<u64>(k));
  }
  map.close();
  cleanup(path);
}

TEST(FlightForensics, InMemoryMapRecordsWithoutSidecar) {
  auto map = GroupHashMap::create_in_memory(
      {.initial_cells = 1 << 10, .flight_mode = obs::FlightMode::kFull});
  for (u64 k = 1; k <= 10; ++k) map.put(k, k);
  obs::Snapshot s = map.snapshot();
  EXPECT_EQ(s.flight.enabled, obs::kEnabled)
      << "anonymous flight region must back in-memory maps";
}

}  // namespace
}  // namespace gh
