// Ablation — batched multi-op API vs scalar loops.
//
// Two mechanisms ride on the batch entry points (hash/group_hashing.hpp):
//
//   * get_batch software-prefetches each upcoming key's level-1 cell and
//     level-2 tag lines, so the random-access misses of neighbouring
//     lookups overlap instead of serialising — the same cache argument
//     the paper makes for cells *within* a group (§3.2), applied *across*
//     independent requests (a scalar get prefetches the same lines for
//     its own key, so the gap is the overlap across keys);
//   * put_batch / erase_batch coalesce persist fences: payload flushes of
//     a window share one fence and commit flushes share another, while
//     every cell still commits with its own 8-byte atomic store (§3.3's
//     crash discipline per cell, amortised ordering cost per window).
//
// This ablation measures both against the scalar loops on the same map:
// wall-clock speedup for lookups, fences-per-op for mutations. A scalar
// put/erase is the same window code run on one key, so the put and erase
// rows compare a window of one with windows of 32. The lookup
// phase runs at >=1M keys by default so the working set dwarfs the LLC —
// prefetching shows nothing on a cache-resident table.
#include <chrono>

#include "bench_common.hpp"
#include "core/group_hash_map.hpp"
#include "hash/tag_probe.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, gh::u64 ops) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         static_cast<double>(ops);
}

const char* simd_name(gh::hash::SimdLevel level) {
  switch (level) {
    case gh::hash::SimdLevel::kScalar: return "scalar";
    case gh::hash::SimdLevel::kSse2: return "sse2";
    case gh::hash::SimdLevel::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gh;
  using namespace gh::bench;
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  const u64 nkeys = cli.get_u64("keys", 1u << 20);
  const usize batch = static_cast<usize>(cli.get_u64("batch", 256));

  print_banner("Ablation: batched multi-op vs scalar",
               "prefetched probing + fence coalescing on the paper's structure", env);
  std::cout << "keys " << nkeys << ", batch size " << batch << ", tag probe simd: "
            << simd_name(hash::active_simd_level()) << "\n\n";

  MapOptions opts;
  u64 cells = 64;
  while (cells < nkeys * 2) cells <<= 1;  // ~0.5 load factor across both levels
  opts.initial_cells = cells;
  opts.flush_latency_ns = 0;  // wall-clock phases; fence counts are latency-free

  Xoshiro256 rng(env.seed);
  std::vector<u64> keys(nkeys);
  for (u64 i = 0; i < nkeys; ++i) keys[i] = (rng.next() >> 1) | 1;  // bit63 clear, nonzero
  std::vector<u64> values(nkeys);
  for (u64 i = 0; i < nkeys; ++i) values[i] = i + 1;

  TablePrinter t({"op", "scalar_ns", "batch_ns", "speedup", "scalar_fences/op",
                  "batch_fences/op"});

  // --- put: scalar loop vs put_batch (fence coalescing) ---
  auto scalar_map = GroupHashMap::create_in_memory(opts);
  u64 f0 = scalar_map.snapshot().persist.fences;
  auto t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) scalar_map.put(keys[i], values[i]);
  auto t1 = Clock::now();
  const double put_scalar_ns = ns_per_op(t0, t1, nkeys);
  const double put_scalar_fences =
      static_cast<double>(scalar_map.snapshot().persist.fences - f0) /
      static_cast<double>(nkeys);

  auto batch_map = GroupHashMap::create_in_memory(opts);
  f0 = batch_map.snapshot().persist.fences;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    batch_map.put_batch(std::span(keys).subspan(i, n), std::span(values).subspan(i, n));
  }
  t1 = Clock::now();
  const double put_batch_ns = ns_per_op(t0, t1, nkeys);
  const double put_batch_fences =
      static_cast<double>(batch_map.snapshot().persist.fences - f0) /
      static_cast<double>(nkeys);
  t.add_row({"put", format_double(put_scalar_ns, 1), format_double(put_batch_ns, 1),
             format_double(put_scalar_ns / put_batch_ns, 2),
             format_double(put_scalar_fences, 2), format_double(put_batch_fences, 2)});

  // --- get: scalar loop vs get_batch (software prefetch) ---
  // Shuffled request order defeats any residual streaming pattern.
  std::vector<u64> lookups = keys;
  for (u64 i = nkeys - 1; i > 0; --i) std::swap(lookups[i], lookups[rng.next_below(i + 1)]);
  u64 live = 0;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) live += batch_map.get(lookups[i]).has_value();
  t1 = Clock::now();
  do_not_optimize(live);
  const double get_scalar_ns = ns_per_op(t0, t1, nkeys);

  std::vector<std::optional<u64>> out(batch);
  u64 live2 = 0;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    batch_map.get_batch(std::span(lookups).subspan(i, n), std::span(out).first(n));
    for (usize w = 0; w < n; ++w) live2 += out[w].has_value();
  }
  t1 = Clock::now();
  do_not_optimize(live2);
  GH_CHECK(live == live2);
  const double get_batch_ns = ns_per_op(t0, t1, nkeys);
  t.add_row({"get", format_double(get_scalar_ns, 1), format_double(get_batch_ns, 1),
             format_double(get_scalar_ns / get_batch_ns, 2), "-", "-"});

  // --- erase: scalar loop vs erase_batch (fence coalescing) ---
  f0 = scalar_map.snapshot().persist.fences;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) scalar_map.erase(keys[i]);
  t1 = Clock::now();
  const double erase_scalar_ns = ns_per_op(t0, t1, nkeys);
  const double erase_scalar_fences =
      static_cast<double>(scalar_map.snapshot().persist.fences - f0) /
      static_cast<double>(nkeys);

  f0 = batch_map.snapshot().persist.fences;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    batch_map.erase_batch(std::span(keys).subspan(i, n));
  }
  t1 = Clock::now();
  const double erase_batch_ns = ns_per_op(t0, t1, nkeys);
  const double erase_batch_fences =
      static_cast<double>(batch_map.snapshot().persist.fences - f0) /
      static_cast<double>(nkeys);
  GH_CHECK(batch_map.size() == 0);
  t.add_row({"erase", format_double(erase_scalar_ns, 1), format_double(erase_batch_ns, 1),
             format_double(erase_scalar_ns / erase_batch_ns, 2),
             format_double(erase_scalar_fences, 2), format_double(erase_batch_fences, 2)});

  t.print(std::cout);
  std::cout << "\nget speedup comes from overlapping the misses of neighbouring "
               "lookups (prefetch), put/erase savings from one fence per window "
               "instead of one per op — each cell still commits with its own "
               "8-byte atomic store.\n";
  return 0;
}
