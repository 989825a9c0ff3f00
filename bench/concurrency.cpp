// Extension bench — multithreaded read/write scaling of the concurrent
// wrapper (the paper evaluates single-threaded latency only; concurrency
// is the obvious deployment question for a library release).
//
// For each read mix (50 / 95 / 100 % gets) and thread count, runs the
// SAME workload against the sharded map twice: with an optimistic
// attempt budget of 0 (set_max_optimistic_attempts(0): every read takes
// the shard mutex — the pre-seqlock baseline) and with the default
// optimistic seqlock reads. Both sides wait the same way: a reader that
// meets a writer spins on the shard's epoch, and every lock wait, the
// baseline's mutex included, spins up to kSpinBeforeParkNs before it
// parks. Reports aggregate Mops/s, the seqlock-vs-mutex ratio, and the
// seqlock contention counters (read retries / lock fallbacks / writer
// waits), so the cost of validation failures is visible next to the
// win. The 8- and 16-thread rows oversubscribe a host with fewer
// hardware threads; they show that spinning waiters park and the run
// still ends. One short run of a cell swings ±20-40% on a shared host,
// so each cell runs --reps times (default 3) on a fresh map and prints
// the median with its range (min-max); the contention columns are
// medians too.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/concurrent_map.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace gh;
  using namespace gh::bench;
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  const u64 ops_per_thread = cli.get_u64("ops", 200'000);
  const usize shards = cli.get_u64("shards", 64);
  const u64 reps = cli.get_u64("reps", 3);
  GH_CHECK_MSG(reps > 0, "--reps must be positive");
  const u64 key_space = 1 << 18;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  print_banner("Extension: concurrent read/write scaling (mutex vs seqlock reads)",
               "beyond the paper: lock-free reads over the same structure", env);
  std::cout << shards << " shards, " << format_count(ops_per_thread)
            << " ops/thread, " << format_count(key_space) << " keys, "
            << hw << " hardware threads, median of " << reps << " runs per cell\n";

  // Median of a cell's runs, and "median (min-max)" for the table.
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const usize m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
  };
  const auto spread = [&](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return format_double(median(v), 2) + " (" + format_double(*lo, 2) + "-" +
           format_double(*hi, 2) + ")";
  };

  // Aggregate Mops/s of a put/get mix across `threads` workers.
  auto run_workload = [&](auto&& put, auto&& get, usize threads, double get_fraction) {
    std::atomic<u64> total_ops{0};
    Stopwatch sw;
    std::vector<std::thread> workers;
    for (usize tid = 0; tid < threads; ++tid) {
      workers.emplace_back([&, tid] {
        Xoshiro256 rng(env.seed + tid);
        for (u64 i = 0; i < ops_per_thread; ++i) {
          const u64 k = rng.next_below(key_space) + 1;
          if (rng.next_double() < get_fraction) {
            get(k);
          } else {
            put(k, i);
          }
        }
        total_ops.fetch_add(ops_per_thread);
      });
    }
    for (auto& w : workers) w.join();
    return static_cast<double>(total_ops.load()) / sw.elapsed_s() / 1e6;
  };

  auto run_map = [&](bool mutex_reads, usize threads, double get_fraction,
                     obs::ContentionSnapshot* contention_out) {
    ConcurrentGroupHashMap map(shards, {.initial_cells = 1 << 20});
    if (mutex_reads) map.set_max_optimistic_attempts(0);
    for (u64 k = 1; k <= key_space; ++k) map.put(k, k);
    const double mops = run_workload(
        [&](u64 k, u64 v) { map.put(k, v); },
        [&](u64 k) { do_not_optimize(map.get(k)); }, threads, get_fraction);
    if (contention_out != nullptr) *contention_out = map.snapshot().contention;
    return mops;
  };

  for (const int read_pct : {50, 95, 100}) {
    const double get_fraction = read_pct / 100.0;
    std::cout << "\n== " << read_pct << "% get / " << (100 - read_pct)
              << "% put ==\n";
    TablePrinter t({"threads", "map mutex", "map seqlock", "map ratio", "retries",
                    "fallbacks", "writer waits"});
    for (usize threads = 1; threads <= 16; threads *= 2) {
      std::vector<double> map_mutex, map_seq, retries, fallbacks, waits;
      // Mutex and seqlock runs alternate, so host drift hits both alike.
      for (u64 rep = 0; rep < reps; ++rep) {
        map_mutex.push_back(run_map(/*mutex_reads=*/true, threads, get_fraction, nullptr));
        obs::ContentionSnapshot contention;
        map_seq.push_back(run_map(/*mutex_reads=*/false, threads, get_fraction, &contention));
        retries.push_back(static_cast<double>(contention.read_retries));
        fallbacks.push_back(static_cast<double>(contention.read_fallbacks));
        waits.push_back(static_cast<double>(contention.writer_waits));
      }
      t.add_row({std::to_string(threads), spread(map_mutex), spread(map_seq),
                 format_double(median(map_seq) / median(map_mutex), 2) + "x",
                 format_double(median(retries), 0), format_double(median(fallbacks), 0),
                 format_double(median(waits), 0)});
    }
    t.print(std::cout);
  }
  std::cout << "\nThroughput in Mops/s, median (min-max) of each cell's runs; ratio = "
               "seqlock / mutex medians on the sharded map.\n"
            << "(Scaling beyond 1x thread columns is only meaningful on multicore"
               " hosts; contention columns are medians over the seqlock map runs.)\n";
  return 0;
}
