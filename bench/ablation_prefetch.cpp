// Ablation — batched multi-op API vs scalar loops.
//
// Two mechanisms ride on the batch entry points (hash/group_hashing.hpp):
//
//   * get_batch runs the staged probe kernel (hash/staged_probe.hpp):
//     every key of a window first prefetches only its level-1 tag byte
//     and level-1 cell; the keys level 1 does not answer then prefetch
//     their level-2 group's tag lines, and after a tag sweep their
//     candidate cells. The misses of neighbouring lookups overlap instead
//     of serialising — the paper's cache argument for cells *within* a
//     group (§3.2), applied *across* independent requests — and a key
//     level 1 answers fetches no level-2 line. A scalar get prefetches
//     its level-1 lines and its group's tag lines together, for its own
//     key only;
//   * put_batch / erase_batch coalesce persist fences: payload flushes of
//     a window share one fence and commit flushes share another, while
//     every cell still commits with its own 8-byte atomic store (§3.3's
//     crash discipline per cell, amortised ordering cost per window).
//
// Rows, each the median of --reps runs (default 5) on fresh maps:
//   * put, erase: the scalar loop vs windows of 32, wall clock and
//     fences per op. A scalar put/erase is the same window code run on
//     one key;
//   * get cold uniform: every stored key once, shuffled, over a table of
//     --keys keys (1M by default: 32 MiB of cells, the size of this
//     host's L3, so most lookups miss the cache);
//   * get cold 50% miss: as above, half of the lookups absent keys, which
//     always fall through to level 2;
//   * get zipf hot: Zipf(0.99) lookups over a cache-resident map of
//     min(--keys, 2^18) keys (8 MiB of cells), the shape of the service's
//     read-hot workload.
// Every get row checks that each batched answer equals the scalar one,
// and reports the prefetches get_batch issued per lookup.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "core/group_hash_map.hpp"
#include "hash/tag_probe.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"

namespace {

using namespace gh;
using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, u64 ops) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         static_cast<double>(ops);
}

const char* simd_name(hash::SimdLevel level) {
  switch (level) {
    case hash::SimdLevel::kScalar: return "scalar";
    case hash::SimdLevel::kSse2: return "sse2";
    case hash::SimdLevel::kAvx2: return "avx2";
  }
  return "?";
}

/// One row's samples, one per repetition.
struct Samples {
  std::vector<double> scalar_ns, batch_ns, scalar_fences, batch_fences, prefetches;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::string range(const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return format_double(*lo, 1) + "-" + format_double(*hi, 1);
}

/// Fences the map has issued so far.
u64 fences(GroupHashMap& map) { return map.snapshot().persist.fences; }

/// Time `lookups` as a scalar get loop and as get_batch calls of `batch`
/// keys on `map`; every batched answer must equal the scalar one.
void time_gets(GroupHashMap& map, const std::vector<u64>& lookups, usize batch, Samples& row) {
  const u64 n = lookups.size();
  std::vector<std::optional<u64>> scalar(n);
  auto t0 = Clock::now();
  for (u64 i = 0; i < n; ++i) scalar[i] = map.get(lookups[i]);
  auto t1 = Clock::now();
  row.scalar_ns.push_back(ns_per_op(t0, t1, n));

  std::vector<std::optional<u64>> batched(n);
  const obs::TableOpSnapshot before = map.snapshot().table;
  t0 = Clock::now();
  for (u64 i = 0; i < n; i += batch) {
    const usize w = std::min<usize>(batch, n - i);
    map.get_batch(std::span(lookups).subspan(i, w), std::span(batched).subspan(i, w));
  }
  t1 = Clock::now();
  const obs::TableOpSnapshot after = map.snapshot().table;
  row.batch_ns.push_back(ns_per_op(t0, t1, n));
  row.prefetches.push_back(static_cast<double>(after.prefetches_issued - before.prefetches_issued) /
                           static_cast<double>(after.queries - before.queries));
  GH_CHECK_MSG(batched == scalar, "get_batch answers differ from scalar get");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gh::bench;
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  const u64 nkeys = cli.get_u64("keys", 1u << 20);
  const usize batch = static_cast<usize>(cli.get_u64("batch", 256));
  const u64 reps = cli.get_u64("reps", 5);
  GH_CHECK_MSG(nkeys > 0 && batch > 0 && reps > 0, "--keys, --batch and --reps must be positive");
  const u64 hot_keys = std::min<u64>(nkeys, u64{1} << 18);

  print_banner("Ablation: batched multi-op vs scalar",
               "staged prefetched probing + fence coalescing on the paper's structure", env);
  std::cout << "keys " << nkeys << " (hot map " << hot_keys << "), batch size " << batch
            << ", median of " << reps << " reps, tag probe simd: "
            << simd_name(hash::active_simd_level()) << "\n\n";

  const auto options_for = [](u64 keys) {
    MapOptions opts;
    u64 cells = 64;
    while (cells < keys * 2) cells <<= 1;  // ~0.5 load factor across both levels
    opts.initial_cells = cells;
    opts.flush_latency_ns = 0;  // wall-clock phases; fence counts are latency-free
    return opts;
  };

  // Every input is drawn once, before any timing; repetitions differ only
  // in the map instances.
  Xoshiro256 rng(env.seed);
  const auto fresh_key = [&] { return (rng.next() >> 1) | 1; };  // bit63 clear, nonzero
  std::vector<u64> keys(nkeys);
  for (u64& k : keys) k = fresh_key();
  std::vector<u64> values(nkeys);
  for (u64 i = 0; i < nkeys; ++i) values[i] = i + 1;
  const auto shuffle = [&](std::vector<u64>& v) {
    for (u64 i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
  };
  // Shuffled request order defeats any residual streaming pattern.
  std::vector<u64> uniform = keys;
  shuffle(uniform);
  std::vector<u64> half_miss(nkeys);
  for (u64 i = 0; i < nkeys; ++i) half_miss[i] = i % 2 == 0 ? keys[rng.next_below(nkeys)] : fresh_key();
  shuffle(half_miss);
  const trace::ZipfSampler zipf(hot_keys, 0.99);
  std::vector<u64> hot(nkeys);
  for (u64& k : hot) k = keys[zipf.sample(rng)];

  Samples put, erase, get_uniform, get_half_miss, get_hot;
  for (u64 rep = 0; rep < reps; ++rep) {
    // --- put: scalar loop vs put_batch (fence coalescing) ---
    auto scalar_map = GroupHashMap::create_in_memory(options_for(nkeys));
    u64 f0 = fences(scalar_map);
    auto t0 = Clock::now();
    for (u64 i = 0; i < nkeys; ++i) scalar_map.put(keys[i], values[i]);
    auto t1 = Clock::now();
    put.scalar_ns.push_back(ns_per_op(t0, t1, nkeys));
    put.scalar_fences.push_back(static_cast<double>(fences(scalar_map) - f0) /
                                static_cast<double>(nkeys));

    auto batch_map = GroupHashMap::create_in_memory(options_for(nkeys));
    f0 = fences(batch_map);
    t0 = Clock::now();
    for (u64 i = 0; i < nkeys; i += batch) {
      const usize n = std::min<usize>(batch, nkeys - i);
      batch_map.put_batch(std::span(keys).subspan(i, n), std::span(values).subspan(i, n));
    }
    t1 = Clock::now();
    put.batch_ns.push_back(ns_per_op(t0, t1, nkeys));
    put.batch_fences.push_back(static_cast<double>(fences(batch_map) - f0) /
                               static_cast<double>(nkeys));

    // --- get: scalar loop vs get_batch (staged prefetch) ---
    time_gets(batch_map, uniform, batch, get_uniform);
    time_gets(batch_map, half_miss, batch, get_half_miss);
    {
      auto hot_map = GroupHashMap::create_in_memory(options_for(hot_keys));
      hot_map.put_batch(std::span(keys).first(hot_keys), std::span(values).first(hot_keys));
      time_gets(hot_map, hot, batch, get_hot);
    }

    // --- erase: scalar loop vs erase_batch (fence coalescing) ---
    f0 = fences(scalar_map);
    t0 = Clock::now();
    for (u64 i = 0; i < nkeys; ++i) scalar_map.erase(keys[i]);
    t1 = Clock::now();
    erase.scalar_ns.push_back(ns_per_op(t0, t1, nkeys));
    erase.scalar_fences.push_back(static_cast<double>(fences(scalar_map) - f0) /
                                  static_cast<double>(nkeys));

    f0 = fences(batch_map);
    t0 = Clock::now();
    for (u64 i = 0; i < nkeys; i += batch) {
      const usize n = std::min<usize>(batch, nkeys - i);
      batch_map.erase_batch(std::span(keys).subspan(i, n));
    }
    t1 = Clock::now();
    erase.batch_ns.push_back(ns_per_op(t0, t1, nkeys));
    erase.batch_fences.push_back(static_cast<double>(fences(batch_map) - f0) /
                                 static_cast<double>(nkeys));
    GH_CHECK(batch_map.size() == 0 && scalar_map.size() == 0);
  }

  TablePrinter t({"op", "scalar_ns", "batch_ns", "speedup", "scalar_range", "batch_range",
                  "scalar_fences/op", "batch_fences/op", "batch_prefetches/get"});
  const auto add = [&](const char* name, const Samples& s) {
    const double scalar_ns = median(s.scalar_ns);
    const double batch_ns = median(s.batch_ns);
    const bool gets = !s.prefetches.empty();
    t.add_row({name, format_double(scalar_ns, 1), format_double(batch_ns, 1),
               format_double(scalar_ns / batch_ns, 2), range(s.scalar_ns), range(s.batch_ns),
               gets ? "-" : format_double(median(s.scalar_fences), 2),
               gets ? "-" : format_double(median(s.batch_fences), 2),
               gets ? format_double(median(s.prefetches), 2) : "-"});
  };
  add("put", put);
  add("get cold uniform", get_uniform);
  add("get cold 50% miss", get_half_miss);
  add("get zipf hot", get_hot);
  add("erase", erase);
  t.print(std::cout);
  std::cout << "\nns per op, medians over repetitions (ranges: min-max). get speedup "
               "comes from overlapping the misses of neighbouring lookups (staged "
               "prefetch), put/erase savings from one fence per window instead of one "
               "per op — each cell still commits with its own 8-byte atomic store.\n";
  return 0;
}
