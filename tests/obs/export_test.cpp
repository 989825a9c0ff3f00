// obs/export.hpp tests: JSON round-trips through the structural
// validator and carries the schema marker + required sections; the
// Prometheus exposition carries the expected metric families.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace gh::obs {
namespace {

Snapshot sample_snapshot() {
  Snapshot s;
  s.source = "TestMap";
  s.size = 10;
  s.capacity = 64;
  s.load_factor = 10.0 / 64.0;
  s.shards = 2;
  s.persist.lines_flushed = 123;
  s.persist.fences = 45;
  s.table.inserts = 10;
  s.table.queries = 7;
  s.scrub.groups_scrubbed = 3;
  s.contention.read_retries = 9;
  s.lifecycle.expansions = 1;
  s.lifecycle.degraded = true;
  s.per_shard.push_back(ShardBrief{0, 5, 32, {1, 0, 0}, 1, false});
  s.per_shard.push_back(ShardBrief{1, 5, 32, {8, 0, 0}, 0, true});
  return s;
}

TEST(ExportJson, ValidatesAndCarriesSchema) {
  const std::string json = export_json(sample_snapshot());
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
  EXPECT_NE(json.find(kSnapshotSchema), std::string::npos);
  for (const char* key : {"\"source\"", "\"persist\"", "\"ops\"", "\"scrub\"",
                          "\"contention\"", "\"lifecycle\"", "\"latency\"",
                          "\"per_shard\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Values survive: lines_flushed and the degraded flag.
  EXPECT_NE(json.find("\"lines_flushed\":123"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
}

TEST(ExportJson, SourceStringIsEscaped) {
  Snapshot s = sample_snapshot();
  s.source = "weird\"name\\with\nescapes";
  const std::string json = export_json(s);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
}

TEST(ExportPrometheus, CarriesMetricFamilies) {
  const std::string prom = export_prometheus(sample_snapshot());
  for (const char* family :
       {"gh_size", "gh_inserts_total", "gh_lines_flushed_total", "gh_fences_total",
        "gh_read_retries_total", "gh_expansions_total"}) {
    EXPECT_NE(prom.find(family), std::string::npos) << family;
  }
  EXPECT_NE(prom.find("source=\"TestMap\""), std::string::npos);
  // Exposition format: every non-comment line is "name{labels} value".
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    const std::string line = prom.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
      EXPECT_EQ(line.rfind("gh_", 0), 0u) << line;
    }
    pos = eol + 1;
  }
}

TEST(ExportPrometheus, CustomPrefix) {
  const std::string prom = export_prometheus(sample_snapshot(), "acme_");
  EXPECT_NE(prom.find("acme_size"), std::string::npos);
  EXPECT_EQ(prom.find("gh_size"), std::string::npos);
}

TEST(ValidateJson, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(validate_json("{\"a\":1", &error));
  EXPECT_FALSE(validate_json("{\"a\":}", &error));
  EXPECT_FALSE(validate_json("", &error));
  EXPECT_FALSE(validate_json("{\"a\":1}}", &error));
  EXPECT_TRUE(validate_json("{\"a\":[1,2,{\"b\":true}],\"c\":\"x\"}", &error)) << error;
}

/// A snapshot whose insert histogram carries real bucket data, so the
/// validator's count-vs-buckets cross-check has something to verify.
Snapshot snapshot_with_buckets() {
  Snapshot s = sample_snapshot();
  s.latency.insert.count = 7;
  s.latency.insert.sum_ns = 700;
  s.latency.insert.max_ns = 300;
  s.latency.insert.buckets = {{3, 4}, {9, 3}};  // sums to count
  return s;
}

TEST(ValidateJson, AcceptsConsistentHistogramBuckets) {
  std::string error;
  EXPECT_TRUE(validate_json(export_json(snapshot_with_buckets()), &error)) << error;
}

TEST(ValidateJson, RejectsBucketCountMismatch) {
  // Mutate the exported document the way a truncated or tampered export
  // would: the total no longer equals the sum of the bucket counts.
  std::string json = export_json(snapshot_with_buckets());
  std::string error;

  // (a) inflate the histogram's "count".
  std::string mutated = json;
  const auto count_at = mutated.find("\"count\":7");
  ASSERT_NE(count_at, std::string::npos);
  mutated.replace(count_at, 9, "\"count\":8");
  EXPECT_FALSE(validate_json(mutated, &error));
  EXPECT_NE(error.find("bucket"), std::string::npos) << error;

  // (b) drop one bucket's worth of counts instead.
  mutated = json;
  const auto bucket_at = mutated.find("[9,3]");
  ASSERT_NE(bucket_at, std::string::npos);
  mutated.replace(bucket_at, 5, "[9,2]");
  EXPECT_FALSE(validate_json(mutated, &error));

  // (c) malformed bucket shape (a pair must be exactly [index, count]).
  mutated = json;
  mutated.replace(mutated.find("[9,3]"), 5, "[9]");
  EXPECT_FALSE(validate_json(mutated, &error));
}

TEST(ValidateJson, RejectsUnknownTopLevelSnapshotKey) {
  const std::string json = export_json(sample_snapshot());
  std::string error;
  ASSERT_EQ(json[0], '{');
  // Inject a top-level key the schema does not define. Both positions —
  // before and after the "schema" marker — must be rejected.
  std::string front = "{\"bogus\":1," + json.substr(1);
  EXPECT_FALSE(validate_json(front, &error));
  EXPECT_NE(error.find("unknown top-level key"), std::string::npos) << error;

  std::string back = json.substr(0, json.size() - 1) + ",\"trailing_junk\":{}}";
  EXPECT_FALSE(validate_json(back, &error));

  // Nested objects may use any keys — only the top level is closed.
  const auto persist_at = json.find("\"persist\":{");
  ASSERT_NE(persist_at, std::string::npos);
  std::string nested = json;
  nested.insert(persist_at + std::string("\"persist\":{").size(), "\"bogus\":1,");
  EXPECT_TRUE(validate_json(nested, &error)) << error;
}

TEST(ValidateJson, ForeignDocumentsSkipSchemaChecks) {
  // Without the snapshot schema marker the validator is purely
  // structural: unknown keys and bucketless histograms are fine.
  std::string error;
  EXPECT_TRUE(validate_json("{\"anything\":1,\"count\":5}", &error)) << error;
  EXPECT_TRUE(validate_json("{\"schema\":\"other.v1\",\"bogus\":1}", &error)) << error;
  // But a count/buckets pair is cross-checked wherever it appears.
  EXPECT_FALSE(validate_json("{\"count\":5,\"buckets\":[[1,1]]}", &error));
  EXPECT_TRUE(validate_json("{\"count\":2,\"buckets\":[[1,1],[4,1]]}", &error)) << error;
}

TEST(ExportPrometheus, EscapesHostileLabelValues) {
  Snapshot s = sample_snapshot();
  s.source = "/tmp/weird\\dir/\"quoted\"\nname.gh";
  const std::string prom = export_prometheus(s);
  // The hostile path must round-trip escaped: \\ for backslash, \" for
  // quote, \n (two characters) for newline — never a raw newline or
  // quote inside the label value.
  EXPECT_NE(prom.find("source=\"/tmp/weird\\\\dir/\\\"quoted\\\"\\nname.gh\""),
            std::string::npos)
      << prom;
  // Every line still parses as comment or "name{labels} value".
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    const std::string line = prom.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_EQ(line.rfind("gh_", 0), 0u) << line;
    }
    pos = eol + 1;
  }
}

/// Build a shard snapshot whose insert histogram holds `values` (raw
/// ticks) — the per-shard input Snapshot::absorb aggregates.
Snapshot shard_with_latency(const std::vector<u64>& values) {
  Snapshot s;
  s.size = values.size();
  s.capacity = 1024;
  LatencyHistogram h;
  for (const u64 v : values) h.record(v);
  s.latency.insert = h.snapshot();
  return s;
}

TEST(SnapshotAbsorb, PercentilesEqualHistogramOfUnion) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  // Shard 1: tight fast cluster. Shard 2: fewer, much slower ops — the
  // aggregate's p99/max must come from shard 2 even though shard 1
  // dominates by count.
  std::vector<u64> fast;
  for (u64 v = 200; v < 400; ++v) fast.push_back(v);
  const std::vector<u64> slow = {100'000, 200'000, 400'000};

  Snapshot agg = shard_with_latency(fast);
  agg.absorb(shard_with_latency(slow));

  std::vector<u64> all = fast;
  all.insert(all.end(), slow.begin(), slow.end());
  const Snapshot uni = shard_with_latency(all);

  EXPECT_EQ(agg.latency.insert.count, uni.latency.insert.count);
  EXPECT_EQ(agg.latency.insert.max_ns, uni.latency.insert.max_ns);
  EXPECT_EQ(agg.latency.insert.buckets, uni.latency.insert.buckets);
  EXPECT_DOUBLE_EQ(agg.latency.insert.p50_ns, uni.latency.insert.p50_ns);
  EXPECT_DOUBLE_EQ(agg.latency.insert.p99_ns, uni.latency.insert.p99_ns);
  EXPECT_GT(agg.latency.insert.p99_ns, agg.latency.insert.p50_ns * 50)
      << "the slow shard's tail must dominate the aggregate p99";
  // Scalar sections add; load_factor is re-derived from the sums.
  EXPECT_EQ(agg.size, uni.size);
  EXPECT_EQ(agg.capacity, 2048u);
}

TEST(SnapshotAbsorb, EmptyIsIdentityAndFlightAccumulates) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  Snapshot s = shard_with_latency({500, 600, 700});
  s.flight.enabled = true;
  s.flight.records_scanned = 4;
  s.flight.in_flight_on_open.push_back(
      FlightOpBrief{OpKind::kExpand, FlightPhase::kPublish, 9, 0xaa});
  const Snapshot before = s;

  s.absorb(Snapshot{});  // absorbing an empty shard changes no statistic
  EXPECT_EQ(s.latency.insert.count, before.latency.insert.count);
  EXPECT_DOUBLE_EQ(s.latency.insert.p99_ns, before.latency.insert.p99_ns);
  EXPECT_TRUE(s.flight.enabled);
  ASSERT_EQ(s.flight.in_flight_on_open.size(), 1u);

  Snapshot other = shard_with_latency({800});
  other.flight.enabled = true;
  other.flight.records_scanned = 2;
  other.flight.records_torn = 1;
  other.flight.in_flight_on_open.push_back(
      FlightOpBrief{OpKind::kCompact, FlightPhase::kStart, 11, 0xbb});
  s.absorb(other);
  EXPECT_EQ(s.flight.records_scanned, 6u);
  EXPECT_EQ(s.flight.records_torn, 1u);
  ASSERT_EQ(s.flight.in_flight_on_open.size(), 2u);
  EXPECT_EQ(s.flight.in_flight_on_open[1].kind, OpKind::kCompact);
}

TEST(SnapshotAbsorb, SelfCopyDoublesCountsKeepsShape) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  Snapshot s = shard_with_latency({1000, 2000, 3000, 4000});
  const Snapshot copy = s;
  s.absorb(copy);
  // Same distribution twice: counts double, the shape (and therefore
  // every percentile and the max) is unchanged.
  EXPECT_EQ(s.latency.insert.count, 2 * copy.latency.insert.count);
  EXPECT_EQ(s.latency.insert.max_ns, copy.latency.insert.max_ns);
  EXPECT_DOUBLE_EQ(s.latency.insert.p50_ns, copy.latency.insert.p50_ns);
  EXPECT_DOUBLE_EQ(s.latency.insert.p99_ns, copy.latency.insert.p99_ns);
  EXPECT_DOUBLE_EQ(s.latency.insert.mean_ns, copy.latency.insert.mean_ns);
}

/// A snapshot with phase attribution and timeseries gauges filled the
/// way ShardServer::live_snapshot + the gh_serve stats ticker do.
Snapshot snapshot_with_phases() {
  Snapshot s = sample_snapshot();
  PhaseSnapshot::Row& ins = s.phases.rows[static_cast<usize>(OpKind::kInsert)];
  ins.samples = 5;
  ins.op_ns = 1000;
  ins.phase_ns[static_cast<usize>(Phase::kRingWait)] = 400;
  ins.phase_ns[static_cast<usize>(Phase::kProbe)] = 300;
  ins.phase_ns[static_cast<usize>(Phase::kPersist)] = 200;
  ins.phase_ns[static_cast<usize>(Phase::kFence)] = 80;
  ins.phase_ns[static_cast<usize>(Phase::kMigrateHelp)] = 20;
  s.timeseries.windows = 3;
  s.timeseries.interval_ms = 500;
  s.timeseries.last_window_ms = 1500;
  s.timeseries.last_qps = 1234.5;
  s.timeseries.last_p99_ns = 42000;
  return s;
}

TEST(ExportJson, PhasesAndTimeseriesSectionsValidate) {
  const std::string json = export_json(snapshot_with_phases());
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_wait_ns\":400"), std::string::npos);
  EXPECT_NE(json.find("\"persist_ns\":200"), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"last_qps\":1234.5"), std::string::npos);
  // Unsampled kinds are elided from the phases object entirely.
  EXPECT_EQ(json.find("\"scrub\":{\"samples\":0"), std::string::npos);
}

TEST(ExportPrometheus, PhaseCountersCarryOpAndPhaseLabels) {
  const std::string prom = export_prometheus(snapshot_with_phases());
  EXPECT_NE(prom.find("gh_phase_ns_total"), std::string::npos);
  EXPECT_NE(prom.find("op=\"insert\",phase=\"ring_wait\""), std::string::npos);
  EXPECT_NE(prom.find("op=\"insert\",phase=\"migrate_help\""), std::string::npos);
}

TEST(SnapshotAbsorb, PhasesSumButSharesAreInvariant) {
  Snapshot s = snapshot_with_phases();
  const Snapshot copy = s;
  s.absorb(copy);
  const PhaseSnapshot::Row& row = s.phases.of(OpKind::kInsert);
  EXPECT_EQ(row.samples, 10u) << "counters double on self-absorb";
  EXPECT_EQ(row.op_ns, 2000u);
  EXPECT_EQ(row.phase_ns[static_cast<usize>(Phase::kPersist)], 400u);
  // Every share is unchanged: doubling all counters scales uniformly.
  for (usize p = 0; p < kPhases; ++p) {
    EXPECT_DOUBLE_EQ(s.phases.share(OpKind::kInsert, static_cast<Phase>(p)),
                     copy.phases.share(OpKind::kInsert, static_cast<Phase>(p)));
  }
  // Phase sums still partition the attributed total after the merge.
  u64 phase_sum = 0;
  for (const u64 p : row.phase_ns) phase_sum += p;
  EXPECT_EQ(phase_sum, row.op_ns);
}

TEST(SnapshotAbsorb, TimeseriesGaugesMaxMergeNotSum) {
  Snapshot s = snapshot_with_phases();
  const Snapshot copy = s;
  s.absorb(copy);
  // Gauges: self-absorb must NOT double (max-merge).
  EXPECT_EQ(s.timeseries.windows, copy.timeseries.windows);
  EXPECT_DOUBLE_EQ(s.timeseries.last_qps, copy.timeseries.last_qps);

  // Absorbing a shard that never saw a ticker keeps the aggregator's
  // gauges; absorbing a larger gauge takes it.
  Snapshot bigger;
  bigger.timeseries.last_qps = 9999.0;
  s.absorb(bigger);
  EXPECT_DOUBLE_EQ(s.timeseries.last_qps, 9999.0);
  EXPECT_EQ(s.timeseries.windows, copy.timeseries.windows);
}

TEST(ExportPrometheus, EmitsHelpAndTypeLines) {
  const std::string prom = export_prometheus(sample_snapshot());
  // Exposition metadata: every family gets "# HELP" then "# TYPE".
  for (const char* family : {"gh_size", "gh_inserts_total", "gh_lines_flushed_total"}) {
    const auto help_at = prom.find("# HELP " + std::string(family) + " ");
    const auto type_at = prom.find("# TYPE " + std::string(family) + " ");
    EXPECT_NE(help_at, std::string::npos) << family;
    EXPECT_NE(type_at, std::string::npos) << family;
    EXPECT_LT(help_at, type_at) << family << ": HELP must precede TYPE";
  }
  // The new flight-forensics counters are exposed too.
  EXPECT_NE(prom.find("gh_flight_records_torn_total"), std::string::npos);
  EXPECT_NE(prom.find("gh_flight_in_flight_on_open_total"), std::string::npos);
}

}  // namespace
}  // namespace gh::obs
