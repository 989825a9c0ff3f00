// obs/metrics.hpp unit tests: histogram bucketing and percentiles, the
// sampling gate, the op recorder and the clock. Latency-recording
// assertions branch on obs::kEnabled so the suite also passes under
// GH_OBS_OFF (where every hook is a constant-folded no-op).
#include "obs/metrics.hpp"

#include "nvm/direct_pm.hpp"
#include "obs/op_scope.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gh::obs {
namespace {

TEST(LatencyHistogram, BucketForIsMonotoneAndExact) {
  // Values below kSub map to themselves.
  for (u64 v = 0; v < LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_for(v), v);
  }
  // Bucket index never decreases as the value grows.
  usize prev = 0;
  for (u64 v = 1; v < (1ull << 40); v = v * 2 + 3) {
    const usize b = LatencyHistogram::bucket_for(v);
    EXPECT_GE(b, prev) << "v=" << v;
    EXPECT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
  EXPECT_LT(LatencyHistogram::bucket_for(~u64{0}), LatencyHistogram::kBuckets);
}

TEST(LatencyHistogram, CountSumMax) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GT(s.sum_ns, 0u);
  EXPECT_GT(s.max_ns, 0u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogram, PercentilesWithinLogBucketError) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  // Uniform 1..10000 ticks: p50 ≈ 5000, p99 ≈ 9900 (in ticks, then
  // converted to ns). The log2 bucketing guarantees ≤ ~2^-3 relative
  // error per bucket; allow 15% to absorb midpoint interpolation.
  LatencyHistogram h;
  for (u64 v = 1; v <= 10000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  const double tpn = ticks_per_ns();
  const double p50_ticks = s.p50_ns * tpn;
  const double p99_ticks = s.p99_ns * tpn;
  EXPECT_NEAR(p50_ticks, 5000, 5000 * 0.15);
  EXPECT_NEAR(p99_ticks, 9900, 9900 * 0.15);
  EXPECT_LE(s.p50_ns, s.p95_ns);
  EXPECT_LE(s.p95_ns, s.p99_ns);
}

TEST(LatencyHistogram, MergeAddsCounts) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  LatencyHistogram a;
  LatencyHistogram b;
  for (u64 v = 1; v <= 100; ++v) a.record(v);
  for (u64 v = 1000; v <= 1100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_GE(a.snapshot().max_ns, b.snapshot().max_ns);
}

/// Two disjoint sample sets (tight cluster + heavy tail) whose union has
/// percentiles neither part has on its own — the shape a sharded map's
/// aggregate must reproduce exactly.
void record_part_a(LatencyHistogram& h) {
  for (u64 v = 100; v < 200; ++v) h.record(v);
}
void record_part_b(LatencyHistogram& h) {
  for (u64 v = 0; v < 10; ++v) h.record(50'000 + v * 1000);
}

TEST(HistogramSnapshotMerge, EqualsHistogramOfUnion) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  record_part_a(a);
  record_part_a(both);
  record_part_b(b);
  record_part_b(both);

  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot uni = both.snapshot();

  // merge() folds the sparse bucket lists and re-derives the statistics
  // through the same finalize path snapshot() uses, so the aggregate is
  // EXACTLY the union histogram — not an approximation of it.
  EXPECT_EQ(merged.count, uni.count);
  EXPECT_EQ(merged.sum_ns, uni.sum_ns);
  EXPECT_EQ(merged.max_ns, uni.max_ns);
  EXPECT_EQ(merged.buckets, uni.buckets);
  EXPECT_DOUBLE_EQ(merged.mean_ns, uni.mean_ns);
  EXPECT_DOUBLE_EQ(merged.p50_ns, uni.p50_ns);
  EXPECT_DOUBLE_EQ(merged.p95_ns, uni.p95_ns);
  EXPECT_DOUBLE_EQ(merged.p99_ns, uni.p99_ns);
  // The union's tail statistics come from part B alone: p99 and max land
  // in the 50µs+ cluster even though A has 10× the samples.
  EXPECT_GT(uni.p99_ns, a.snapshot().p99_ns * 10);
}

TEST(HistogramSnapshotMerge, SumIsConvertedOnceNotPerPart) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  // Two one-sample histograms whose tick sums each floor to ns with a
  // fractional remainder of at least a half: converting each part and
  // adding loses 1 ns against converting the union's sum. Searched at the
  // rate this process calibrated, so the pair exists whatever it is.
  u64 ticks = 0;
  for (u64 t = 1; t < 10'000 && ticks == 0; ++t) {
    if (ticks_to_ns(t) + ticks_to_ns(t + 1) < ticks_to_ns(2 * t + 1)) ticks = t;
  }
  if (ticks == 0) GTEST_SKIP() << "ticks are whole nanoseconds here: no floor to lose";
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  a.record(ticks);
  b.record(ticks + 1);
  both.record(ticks);
  both.record(ticks + 1);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.sum_ns, both.snapshot().sum_ns);
  EXPECT_EQ(merged.sum_ns, ticks_to_ns(2 * ticks + 1));
  EXPECT_GT(merged.sum_ns, a.snapshot().sum_ns + b.snapshot().sum_ns);
}

TEST(HistogramSnapshotMerge, EmptyIsIdentityBothWays) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  LatencyHistogram h;
  record_part_a(h);
  const HistogramSnapshot base = h.snapshot();

  HistogramSnapshot lhs = base;
  lhs.merge(HistogramSnapshot{});
  EXPECT_EQ(lhs.count, base.count);
  EXPECT_EQ(lhs.buckets, base.buckets);
  EXPECT_DOUBLE_EQ(lhs.p99_ns, base.p99_ns);

  HistogramSnapshot rhs;
  rhs.merge(base);
  EXPECT_EQ(rhs.count, base.count);
  EXPECT_EQ(rhs.buckets, base.buckets);
  EXPECT_DOUBLE_EQ(rhs.p50_ns, base.p50_ns);
  EXPECT_EQ(rhs.max_ns, base.max_ns);
}

TEST(SampleGate, AdmitsOneInTwoToTheShift) {
  SampleGate gate;
  gate.set_shift(4);
  int admitted = 0;
  for (int i = 0; i < 160; ++i) admitted += gate.admit() ? 1 : 0;
  EXPECT_EQ(admitted, 10);  // every 16th, starting with the first
  gate.set_shift(0);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(gate.admit());
}

TEST(OpRecorderTest, PerKindIsolationAndMerge) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  OpRecorder a;
  a.record(OpKind::kInsert, 100);
  a.record(OpKind::kFind, 200);
  EXPECT_EQ(a.of(OpKind::kInsert).count(), 1u);
  EXPECT_EQ(a.of(OpKind::kFind).count(), 1u);
  EXPECT_EQ(a.of(OpKind::kErase).count(), 0u);
  OpRecorder b;
  b.record(OpKind::kInsert, 300);
  a.merge(b);
  EXPECT_EQ(a.of(OpKind::kInsert).count(), 2u);
  a.reset();
  EXPECT_EQ(a.of(OpKind::kInsert).count(), 0u);
}

TEST(ObsOff, HooksAreNoOpsWhenDisabled) {
  if (kEnabled) GTEST_SKIP() << "hooks enabled in this build";
  // Under GH_OBS_OFF every entry point must be callable and inert.
  EXPECT_EQ(now_ticks(), 0u);
  LatencyHistogram h;
  h.record(123);
  EXPECT_EQ(h.count(), 0u);
  // An op scope draws no ticket, times nothing, claims no phase scratch.
  OpRecorder rec;
  PhaseAccum phases;
  OpSinks sinks;
  sinks.latency = &rec;
  sinks.phases = &phases;
  sinks.gate.set_shift(0);
  { OpScope op(sinks, OpKind::kInsert, 1); }
  EXPECT_EQ(sinks.gate.ticket(), 0u);
  EXPECT_EQ(rec.of(OpKind::kInsert).count(), 0u);
  EXPECT_FALSE(detail::t_phase.collecting);
}

TEST(Clock, TicksConvertToPlausibleNs) {
  if (!kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  EXPECT_GT(ticks_per_ns(), 0.0);
  const u64 t0 = now_ticks();
  const u64 t1 = now_ticks();
  EXPECT_GE(t1, t0);
  // A back-to-back tick pair converts to far less than a millisecond.
  EXPECT_LT(ticks_to_ns(t1 - t0), 1'000'000u);
}

}  // namespace
}  // namespace gh::obs
