// Observability overhead — the acceptance gate for the obs layer.
//
// Two questions:
//   1. primitive cost: what does one hook cost in isolation (rdtsc pair,
//      histogram record)?
//   2. end-to-end cost: insert/query throughput on a GroupHashMap at the
//      paper's 300 ns flush model, with per-op latency recording ON vs
//      OFF (MapOptions::record_latency). Target: ≤ 2% regression with
//      recording on; a GH_OBS_OFF build compiles every hook away and
//      must measure ~0%.
//
// Flags: --keys=N (default 200k), --reps=N primitive loop count.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/group_hash_map.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

using namespace gh;
using bench::do_not_optimize;

double ns_per_iter(u64 reps, const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         static_cast<double>(reps);
}

struct MapRun {
  double insert_ns = 0;
  double query_ns = 0;
};

MapRun run_map(u64 keys, u64 flush_ns, bool record_latency, u32 sample_shift,
               obs::FlightMode flight = obs::FlightMode::kOff,
               obs::TraceMode trace = obs::TraceMode::kOff) {
  auto map = BasicGroupHashMap<hash::Cell16>::create_in_memory(
      {.initial_cells = 4 * keys, .flush_latency_ns = flush_ns,
       .record_latency = record_latency, .latency_sample_shift = sample_shift,
       .flight_mode = flight});
  // Tracing legs emulate what the service does per traced request:
  // install a thread trace around the op so op_finish emits the op span
  // plus its phase children. kSampled traces 1 op in 2^kTraceSampleShift,
  // kFull every op.
  const u64 trace_mask = trace == obs::TraceMode::kFull
                             ? 0
                             : (u64{1} << obs::kTraceSampleShift) - 1;
  MapRun r;
  {
    const auto t0 = std::chrono::steady_clock::now();
    if (trace == obs::TraceMode::kOff) {
      for (u64 k = 1; k <= keys; ++k) map.put(k, k);
    } else {
      for (u64 k = 1; k <= keys; ++k) {
        if ((k & trace_mask) == 0) {
          const u64 tid = obs::SpanCollector::global().next_trace_id();
          obs::set_thread_trace(tid, 0, true);
          map.put(k, k);
          obs::clear_thread_trace();
        } else {
          map.put(k, k);
        }
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.insert_ns = static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
                  static_cast<double>(keys);
  }
  {
    u64 hits = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (u64 k = 1; k <= keys; ++k) hits += map.get(k).has_value();
    const auto t1 = std::chrono::steady_clock::now();
    do_not_optimize(hits);
    r.query_ns = static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
                 static_cast<double>(keys);
  }
  return r;
}

struct Leg {
  bool record_latency;
  u32 sample_shift;
  obs::FlightMode flight;
  obs::TraceMode trace = obs::TraceMode::kOff;
  MapRun best{0, 0};
};

// The insert path is dominated by the calibrated 300 ns flush spin, whose
// run-to-run variance (VM scheduling, frequency) is larger than the hook
// cost being measured. Best-of-N is the standard noise-robust estimator,
// and the legs are interleaved within each round — running all rounds of
// one leg back-to-back would fold minute-scale host drift into the
// leg-vs-leg comparison the acceptance gate is built on.
void best_of_interleaved(std::vector<Leg>& legs, int rounds, u64 keys,
                         u64 flush_ns) {
  for (int i = 0; i < rounds; ++i) {
    for (Leg& leg : legs) {
      const MapRun r = run_map(keys, flush_ns, leg.record_latency, leg.sample_shift,
                               leg.flight, leg.trace);
      if (i == 0) {
        leg.best = r;
      } else {
        leg.best.insert_ns = std::min(leg.best.insert_ns, r.insert_ns);
        leg.best.query_ns = std::min(leg.best.query_ns, r.query_ns);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto env = bench::BenchEnv::from_env();
  const u64 keys = cli.get_u64("keys", 200'000);
  const u64 reps = cli.get_u64("reps", 2'000'000);

  bench::print_banner("observability overhead (obs layer acceptance)",
                      "repo extension: latency histograms + op tracing", env);
  std::printf("obs hooks compiled: %s\n\n", obs::kEnabled ? "ON" : "OFF (GH_OBS_OFF)");

  // --- primitive costs ------------------------------------------------------
  {
    TablePrinter t({"primitive", "ns/op"});
    u64 sink = 0;
    t.add_row({"rdtsc pair (op_start+op_finish timing)",
               format_double(ns_per_iter(reps, [&] {
                 for (u64 i = 0; i < reps; ++i) sink += obs::now_ticks() - obs::now_ticks();
               }), 2)});
    obs::LatencyHistogram hist;
    t.add_row({"LatencyHistogram::record",
               format_double(ns_per_iter(reps, [&] {
                 for (u64 i = 0; i < reps; ++i) hist.record(i & 0xffff);
               }), 2)});
    do_not_optimize(sink);
    do_not_optimize(hist);
    t.print(std::cout);
  }

  // --- end-to-end map overhead ---------------------------------------------
  std::printf("\nGroupHashMap, %s keys, flush latency %llu ns:\n",
              format_count(keys).c_str(),
              static_cast<unsigned long long>(env.flush_latency_ns));
  // Warm-up run (page faults, allocator) discarded.
  run_map(keys / 4, env.flush_latency_ns, true, obs::kDefaultSampleShift);
  const int rounds = static_cast<int>(cli.get_u64("rounds", 3));
  // Flight-recorder legs ride on the latency-off baseline so each
  // overhead number isolates one instrument.
  std::vector<Leg> legs = {
      {/*record_latency=*/false, obs::kDefaultSampleShift, obs::FlightMode::kOff},
      {/*record_latency=*/true, obs::kDefaultSampleShift, obs::FlightMode::kOff},
      {/*record_latency=*/true, /*sample_shift=*/0, obs::FlightMode::kOff},
      {/*record_latency=*/false, obs::kDefaultSampleShift, obs::FlightMode::kSampled},
      {/*record_latency=*/false, obs::kDefaultSampleShift, obs::FlightMode::kFull},
      // Tracing legs ride on the default latency-on config (tracing in
      // production runs on top of the always-on instruments).
      {/*record_latency=*/true, obs::kDefaultSampleShift, obs::FlightMode::kOff,
       obs::TraceMode::kSampled},
      {/*record_latency=*/true, obs::kDefaultSampleShift, obs::FlightMode::kOff,
       obs::TraceMode::kFull},
  };
  best_of_interleaved(legs, rounds, keys, env.flush_latency_ns);
  const MapRun& off = legs[0].best;
  const MapRun& on = legs[1].best;
  const MapRun& every = legs[2].best;
  const MapRun& flight_sampled = legs[3].best;
  const MapRun& flight_full = legs[4].best;
  const MapRun& trace_sampled = legs[5].best;
  const MapRun& trace_full = legs[6].best;

  TablePrinter t({"config", "insert ns/op", "query ns/op"});
  t.add_row({"record_latency=off", format_double(off.insert_ns, 1),
             format_double(off.query_ns, 1)});
  t.add_row({"on, sampled 1/64 (default)", format_double(on.insert_ns, 1),
             format_double(on.query_ns, 1)});
  t.add_row({"on, every op (shift=0)", format_double(every.insert_ns, 1),
             format_double(every.query_ns, 1)});
  t.add_row({"flight recorder, sampled 1/128", format_double(flight_sampled.insert_ns, 1),
             format_double(flight_sampled.query_ns, 1)});
  t.add_row({"flight recorder, every op", format_double(flight_full.insert_ns, 1),
             format_double(flight_full.query_ns, 1)});
  t.add_row({"tracing, sampled 1/64", format_double(trace_sampled.insert_ns, 1),
             format_double(trace_sampled.query_ns, 1)});
  t.add_row({"tracing, every op (full)", format_double(trace_full.insert_ns, 1),
             format_double(trace_full.query_ns, 1)});
  const double insert_pct = off.insert_ns > 0
                                ? 100.0 * (on.insert_ns - off.insert_ns) / off.insert_ns
                                : 0;
  const double query_pct = off.query_ns > 0
                               ? 100.0 * (on.query_ns - off.query_ns) / off.query_ns
                               : 0;
  const double flight_pct =
      off.insert_ns > 0
          ? 100.0 * (flight_sampled.insert_ns - off.insert_ns) / off.insert_ns
          : 0;
  // Tracing rides on the latency-on leg, so its overhead is measured
  // against that baseline, not the all-off one.
  const double trace_pct =
      on.insert_ns > 0
          ? 100.0 * (trace_sampled.insert_ns - on.insert_ns) / on.insert_ns
          : 0;
  t.add_row({"latency overhead", format_double(insert_pct, 2) + "%",
             format_double(query_pct, 2) + "%"});
  t.add_row({"flight overhead (sampled)", format_double(flight_pct, 2) + "%", "-"});
  t.add_row({"tracing overhead (sampled)", format_double(trace_pct, 2) + "%", "-"});
  t.print(std::cout);
  std::printf("\nacceptance: insert overhead %s 2%% target%s\n",
              insert_pct <= 2.0 ? "within" : "ABOVE",
              obs::kEnabled ? "" : " (hooks compiled out; expect ~0%)");
  std::printf("acceptance: flight recorder (sampled) insert overhead %s 2%% target%s\n",
              flight_pct <= 2.0 ? "within" : "ABOVE",
              obs::kEnabled ? "" : " (hooks compiled out; expect ~0%)");
  std::printf("acceptance: tracing (sampled) insert overhead %s 2%% target%s\n",
              trace_pct <= 2.0 ? "within" : "ABOVE",
              obs::kEnabled ? "" : " (hooks compiled out; expect ~0%)");
  return 0;
}
