// Golden exports: one fixed obs::Snapshot with every section filled is
// serialized with export_json and export_prometheus (default and custom
// prefix) and compared byte for byte against the fixture files in
// tests/obs/golden/. Any change to a key, a metric name, a help text, the
// field order or the number formatting shows up here as a diff.
//
// Every value is set by hand (no histogram is finalized through the TSC
// calibration), so the documents do not depend on the host or on
// GH_OBS_OFF.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/snapshot.hpp"

namespace gh::obs {
namespace {

HistogramSnapshot histogram(u64 seed) {
  HistogramSnapshot h;
  h.count = 3 * seed;
  h.sum_ns = 1000 * seed + 7;
  h.max_ns = 900 * seed;
  h.mean_ns = 333.25 * static_cast<double>(seed);
  h.p50_ns = 250.5 * static_cast<double>(seed);
  h.p95_ns = 700.125 * static_cast<double>(seed);
  h.p99_ns = 850.0 * static_cast<double>(seed);
  h.p999_ns = 899.75 * static_cast<double>(seed);
  h.buckets = {{static_cast<u32>(40 + seed), seed}, {static_cast<u32>(60 + seed), 2 * seed}};
  return h;
}

Snapshot golden_snapshot() {
  Snapshot s;
  // A quote, a backslash and a newline: both exporters must escape them.
  s.source = "Golden\"Map\\shard\n0";
  s.size = 1000;
  s.capacity = 4096;
  s.load_factor = 0.244140625;
  s.shards = 2;

  s.persist = {101, 102, 103, 104, 105, 106, 107};
  s.table = {201, 202, 203, 204, 205, 206, 207, 208, 209,
             210, 211, 212, 213, 214, 215, 216, 217};
  s.scrub = {301, 302, 303, 304, 305, 306, 307, 308, 309};
  s.contention = {401, 402, 403};
  s.lifecycle.expansions = 501;
  s.lifecycle.expand_failures = 502;
  s.lifecycle.compactions = 503;
  s.lifecycle.compact_failures = 504;
  s.lifecycle.recoveries = 505;
  s.lifecycle.orphans_reclaimed = 506;
  s.lifecycle.degraded = true;
  s.lifecycle.expand_backoff = 8;
  s.lifecycle.expand_cooldown = 509;
  s.migration = {1, 610, 612, 603, 604, 605, 606, 607, 608, 609};

  s.latency.insert = histogram(1);
  s.latency.find = histogram(2);
  s.latency.erase = histogram(3);
  s.latency.expand = histogram(4);
  s.latency.scrub = histogram(5);
  s.latency.recover = histogram(6);
  s.latency.compact = histogram(7);
  s.latency.migrate = histogram(8);

  // Two sampled rows; the rest stay empty and are left out of both exports.
  PhaseSnapshot::Row& insert = s.phases.rows[static_cast<usize>(OpKind::kInsert)];
  insert.samples = 11;
  insert.op_ns = 15000;
  insert.phase_ns = {1000, 2000, 9000, 2500, 500};
  PhaseSnapshot::Row& find = s.phases.rows[static_cast<usize>(OpKind::kFind)];
  find.samples = 22;
  find.op_ns = 4400;
  find.phase_ns = {0, 4400, 0, 0, 0};

  s.timeseries.windows = 12;
  s.timeseries.interval_ms = 250;
  s.timeseries.last_window_ms = 123456;
  s.timeseries.last_qps = 98765.5;
  s.timeseries.last_p99_ns = 1234.75;

  s.flight.enabled = true;
  s.flight.records_scanned = 701;
  s.flight.records_torn = 0;
  s.flight.in_flight_on_open = {
      {OpKind::kInsert, FlightPhase::kStart, 77, 0xdeadbeef},
      {OpKind::kMigrate, FlightPhase::kPublish, 78,
       encode_migration_mark(MigrationPhase::kCursor, 42)},
  };

  s.per_shard.push_back(ShardBrief{0, 600, 2048, {400, 2, 1}, 1, false});
  s.per_shard.push_back(ShardBrief{1, 400, 2048, {1, 400, 402}, 0, true});
  return s;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(GH_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(ExportGolden, JsonMatchesFixture) {
  const std::string json = export_json(golden_snapshot());
  EXPECT_EQ(json + "\n", read_fixture("snapshot.json"));
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
}

TEST(ExportGolden, PrometheusMatchesFixture) {
  EXPECT_EQ(export_prometheus(golden_snapshot()), read_fixture("snapshot.prom"));
}

TEST(ExportGolden, PrometheusCustomPrefixMatchesFixture) {
  EXPECT_EQ(export_prometheus(golden_snapshot(), "acme_"), read_fixture("snapshot_acme.prom"));
}

}  // namespace
}  // namespace gh::obs
