// Tracing vs concurrency torture (runs under TSan via the `concurrency`
// ctest label): writer threads run with a sampled thread trace installed
// around a slice of their ops — the exact shape the service's shard
// workers produce — on a ConcurrentGroupHashMap sized so shards resize
// online mid-run. Meanwhile a poller thread concurrently
//   * takes map.snapshot() (phase attribution rolls up under load),
//   * feeds a TimeSeries ticker from those snapshots, and
//   * drains SpanCollector::global() while writers are still emitting.
// Checks: no data races (TSan), every drained span is structurally
// valid, nesting invariants hold per trace (phase children sit inside
// their op span), and the phase accumulators keep the partition
// invariant (sum of phase_ns == op_ns) at every poll.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/concurrent_map.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace gh {
namespace {

MapOptions torture_options() {
  MapOptions o;
  o.initial_cells = 256;  // tiny shards: migrations fire mid-run
  o.flush_latency_ns = 0;
  o.latency_sample_shift = 0;
  o.migrate_groups_per_op = 1;
  return o;
}

TEST(TraceTorture, SpansStayWellFormedUnderWritersAndConcurrentDrain) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  obs::SpanCollector& collector = obs::SpanCollector::global();
  ConcurrentGroupHashMap map(4, torture_options());

  constexpr int kWriters = 4;
  constexpr u64 kOpsPerWriter = 6000;
  std::atomic<bool> done{false};
  std::atomic<u64> traced_ops{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (u64 i = 0; i < kOpsPerWriter; ++i) {
        const u64 k = (u64(w) << 32) | (i + 1);
        // Every 8th op runs inside a sampled trace — same cadence class
        // the service uses, dense enough to keep the rings churning.
        if ((i & 7) == 0) {
          obs::set_thread_trace(collector.next_trace_id(), /*parent_span=*/0,
                                /*sampled=*/true);
          map.put(k, k * 3 + 1);
          if ((i & 63) == 0) (void)map.erase(k);
          obs::clear_thread_trace();
          traced_ops.fetch_add(1, std::memory_order_relaxed);
        } else {
          map.put(k, k * 3 + 1);
          if ((i & 15) == 0) (void)map.get(k);
        }
      }
    });
  }

  std::vector<obs::SpanRecord> drained;
  obs::TimeSeries ts(/*max_windows=*/16, /*interval_ms=*/1);
  u64 fake_ms = 0;
  u64 polls = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::Snapshot s = map.snapshot();
      // Partition invariant survives concurrent accumulation: the phase
      // buckets of every kind sum to the attributed op time. Each shard
      // snapshot truncates its ticks→ns conversion per field before the
      // roll-up adds them, so allow kPhases+1 ns of slack per shard.
      for (usize k = 0; k < obs::kOpKinds; ++k) {
        const obs::PhaseSnapshot::Row& row = s.phases.rows[k];
        u64 phase_sum = 0;
        for (const u64 p : row.phase_ns) phase_sum += p;
        EXPECT_NEAR(static_cast<double>(phase_sum), static_cast<double>(row.op_ns),
                    4.0 * (obs::kPhases + 1));
      }
      ts.tick(s, ++fake_ms);
      const std::vector<obs::SpanRecord> got = collector.drain_all();
      drained.insert(drained.end(), got.begin(), got.end());
      ++polls;
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls, 0u);
  {
    const std::vector<obs::SpanRecord> tail = collector.drain_all();
    drained.insert(drained.end(), tail.begin(), tail.end());
  }

  ASSERT_FALSE(drained.empty()) << "traced ops emitted no spans";
  // Structural validity of every record that crossed the ring.
  std::map<u64, std::vector<const obs::SpanRecord*>> by_trace;
  for (const obs::SpanRecord& r : drained) {
    EXPECT_NE(r.trace_id, 0u);
    EXPECT_GE(r.t_end, r.t_start);
    EXPECT_LT(r.kind, obs::kSpanKinds);
    EXPECT_NE(r.span_id, 0u);
    by_trace[r.trace_id].push_back(&r);
  }
  // Nesting: every phase child that survived alongside its parent op
  // span nests inside it (rings overwrite, so orphans are fine — but a
  // surviving pair must be consistent).
  u64 nested_pairs = 0;
  for (const auto& [trace_id, spans] : by_trace) {
    for (const obs::SpanRecord* child : spans) {
      if (child->kind < static_cast<u8>(obs::SpanKind::kPhaseProbe)) continue;
      for (const obs::SpanRecord* parent : spans) {
        if (parent->span_id != child->parent_id) continue;
        EXPECT_GE(child->t_start, parent->t_start);
        EXPECT_LE(child->t_end, parent->t_end);
        ++nested_pairs;
      }
    }
  }
  EXPECT_GT(nested_pairs, 0u) << "no op span kept any of its phase children";

  // The ticker consumed real snapshots under load.
  EXPECT_GT(ts.gauges().windows, 0u);
  const obs::Snapshot fin = map.snapshot();
  EXPECT_GT(fin.phases.total_op_ns(), 0u);
  EXPECT_GT(traced_ops.load(), 0u);
}

}  // namespace
}  // namespace gh
