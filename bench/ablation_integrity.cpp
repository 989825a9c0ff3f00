// Ablation — integrity tax: what per-group CRC32C checksums cost.
//
// The paper's consistency argument covers crashes (the 8-byte atomic
// commit word); it says nothing about media faults. This repo adds
// optional per-group checksums (XOR of seeded per-cell CRC32C digests,
// maintained incrementally: one extra 8-byte store per mutation) so
// at-rest corruption is detected instead of served. The raw table's
// default CountMode::kEager also flushes and fences that word per
// mutation; a durable map (CountMode::kRecoveryOnly) leaves it to
// recovery and seals it at close(), so checksums add no flushed line to
// its writes (pinned by tests/core/group_hash_map_test.cpp). This bench
// prices the eager table's choice three ways:
//
//   1. request latency — insert/query/delete with checksums off vs on,
//      narrow and wide cells, at the paper's 0.7 operating point, on the
//      raw (eager) table;
//   2. media traffic — extra flushed lines per insert (the endurance
//      currency of ablation_wear) on the raw table;
//   3. scrub throughput — how fast a background verification pass covers
//      a clean table, full-scan and per-64-group incremental tick.
#include "bench_common.hpp"

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "util/clock.hpp"

int main(int argc, char** argv) {
  using namespace gh;
  using namespace gh::bench;
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  env.ops = cli.get_u64("ops", env.ops);

  print_banner("Ablation: per-group checksum overhead and scrub throughput",
               "integrity extension beyond ICPP'18 (crash-only) consistency", env);

  const u32 bits = cells_log2_for(trace::TraceKind::kRandomNum, env.scale_shift);
  const trace::Workload workload =
      sized_workload(trace::TraceKind::kRandomNum, bits, 0.7, env.ops, env.seed);

  struct Variant {
    const char* name;
    bool wide;
    bool crc;
  };
  const Variant variants[] = {
      {"group", false, false},
      {"group+crc", false, true},
      {"group-wide", true, false},
      {"group-wide+crc", true, true},
  };

  const auto keys = workload_keys(workload);
  TablePrinter t({"variant", "insert", "query", "delete", "flushes/insert"});
  double insert_ns[2][2] = {};  // [wide][crc]
  for (const Variant& v : variants) {
    hash::TableConfig cfg = scheme_config(hash::Scheme::kGroup, false, bits, v.wide);
    cfg.group_crc = v.crc;
    const LatencyResult r = run_latency(cfg, workload, 0.7, env);
    insert_ns[v.wide][v.crc] = r.insert_ns;

    // Media traffic, measured directly (latency emulation off): flushed
    // lines per successful insert. The checksum variant pays one extra
    // line — the group's crc word — per mutation.
    nvm::DirectPM count_pm(nvm::PersistConfig{.flush_latency_ns = 0});
    const usize bytes = hash::table_required_bytes(cfg);
    nvm::NvmRegion traffic_region = nvm::NvmRegion::create_anonymous(bytes);
    auto traffic_table =
        hash::make_table(count_pm, traffic_region.bytes().first(bytes), cfg, true);
    const u64 fill_target =
        static_cast<u64>(static_cast<double>(traffic_table->capacity()) * 0.7);
    const u64 flushed_before = count_pm.stats().lines_flushed;
    u64 inserted = 0;
    for (const Key128& k : keys) {
      if (traffic_table->count() >= fill_target) break;
      if (traffic_table->insert(k, 1)) ++inserted;
    }
    const double flushes_per_insert =
        static_cast<double>(count_pm.stats().lines_flushed - flushed_before) /
        static_cast<double>(std::max<u64>(1, inserted));

    t.add_row({v.name, format_ns(r.insert_ns), format_ns(r.query_ns),
               format_ns(r.delete_ns), format_double(flushes_per_insert, 2)});
  }
  t.print(std::cout);
  std::cout << "\nInsert overhead of +crc: "
            << format_double((insert_ns[0][1] / insert_ns[0][0] - 1.0) * 100.0, 1)
            << "% narrow, "
            << format_double((insert_ns[1][1] / insert_ns[1][0] - 1.0) * 100.0, 1)
            << "% wide (raw eager table: one extra flushed line per mutation; "
               "queries are checksum-free).\n\n";

  // Scrub throughput on a clean checksummed table at the same load.
  using Table = hash::GroupHashTable<hash::Cell16, nvm::DirectPM>;
  const Table::Params params{.level_cells = (1ull << bits) / 2,
                             .group_size = 256,
                             .group_crc = true};
  const usize table_bytes = Table::required_bytes(params);
  nvm::DirectPM pm(nvm::PersistConfig{.flush_latency_ns = env.flush_latency_ns});
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(table_bytes);
  Table table(pm, region.bytes().first(table_bytes), params, /*format=*/true);
  const u64 target = static_cast<u64>(static_cast<double>(table.capacity()) * 0.7);
  for (const u64 k : workload.keys64) {
    if (table.count() >= target) break;
    table.insert(k, trace::value_for_key(k));
  }

  const auto ignore_loss = [](const hash::LostCell&) {};
  Stopwatch full;
  const hash::ScrubReport report = table.scrub_groups(0, ~u64{0}, ignore_loss);
  const double full_ms = full.elapsed_ms();
  GH_CHECK(report.clean());

  constexpr u64 kTickGroups = 64;
  Stopwatch tick;
  const hash::ScrubReport one_tick = table.scrub_groups(0, kTickGroups, ignore_loss);
  const double tick_ms = tick.elapsed_ms();

  const double bytes_scanned =
      static_cast<double>(report.cells_scanned) * sizeof(hash::Cell16);
  TablePrinter s({"pass", "groups", "cells", "time", "groups/s", "MB/s"});
  s.add_row({"full scan", format_count(report.groups_checked),
             format_count(report.cells_scanned), format_ns(full_ms * 1e6),
             format_count(static_cast<u64>(
                 static_cast<double>(report.groups_checked) / (full_ms / 1e3))),
             format_double(bytes_scanned / 1e6 / (full_ms / 1e3), 0)});
  s.add_row({"64-group tick", format_count(one_tick.groups_checked),
             format_count(one_tick.cells_scanned), format_ns(tick_ms * 1e6),
             format_count(static_cast<u64>(
                 static_cast<double>(one_tick.groups_checked) / (tick_ms / 1e3))),
             "-"});
  s.print(std::cout);
  std::cout << "\nScrub is read-only on a clean table (no flushes): a "
               "maintenance tick of "
            << kTickGroups << " groups bounds per-call latency while the wrap-around "
               "cursor covers the whole table across ticks.\n";
  return 0;
}
