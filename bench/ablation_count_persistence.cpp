// Ablation — the cost of eagerly persisting the global `count` field (and,
// with per-group checksums, the checksum words), MEASURED by running both
// policies.
//
// The paper's protocol atomically updates and persists `count` after
// every insert/delete (Algorithms 1 and 3) even though recovery recounts
// it anyway (Algorithm 4); a checksummed table likewise persists each
// touched group checksum, which recovery also rebuilds. GroupHashTable
// implements both policies (CountMode::kEager / kRecoveryOnly, the
// durable maps' mode, where seal() makes the words exact at clean
// shutdown); this bench runs the same workload under each, with
// checksums off and on, and reports the latency and flush deltas. A
// third row per checksum setting adds CommitOrder::kSameLine, the
// durable maps' one-flush cell commit (x86 in-line persist order).
#include "bench_common.hpp"

#include "hash/cells.hpp"
#include "util/clock.hpp"

int main(int argc, char** argv) {
  using namespace gh;
  using namespace gh::bench;
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  env.ops = cli.get_u64("ops", env.ops * 2);

  print_banner("Ablation: eager vs recovery-only count and checksum persistence",
               "measures (not estimates) the cost of the ICPP'18 count protocol", env);

  using Table = hash::GroupHashTable<hash::Cell16, nvm::DirectPM>;
  const u32 bits = cells_log2_for(trace::TraceKind::kRandomNum, env.scale_shift);
  const trace::Workload workload =
      sized_workload(trace::TraceKind::kRandomNum, bits, 0.5, env.ops * 2, env.seed);

  TablePrinter t({"count mode", "checksums", "insert", "delete", "flushes/mutation",
                  "count consistent"});
  using hash::CommitOrder;
  using hash::CountMode;
  struct Variant {
    CountMode mode;
    bool crc;
    CommitOrder order = CommitOrder::kFenced;
  };
  const Variant variants[] = {{CountMode::kEager, false},
                              {CountMode::kRecoveryOnly, false},
                              {CountMode::kRecoveryOnly, false, CommitOrder::kSameLine},
                              {CountMode::kEager, true},
                              {CountMode::kRecoveryOnly, true},
                              {CountMode::kRecoveryOnly, true, CommitOrder::kSameLine}};
  double eager_insert[2] = {}, lazy_insert[2] = {}, same_line_insert[2] = {};  // [crc]
  for (const auto [mode, crc, order] : variants) {
    const Table::Params params{.level_cells = (1ull << bits) / 2,
                               .group_size = 256,
                               .count_mode = mode,
                               .group_crc = crc,
                               .commit_order = order};
    nvm::DirectPM pm(nvm::PersistConfig{.flush_latency_ns = env.flush_latency_ns});
    nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(Table::required_bytes(params));
    Table table(pm, region.bytes().first(Table::required_bytes(params)), params, true);

    const u64 target = table.capacity() / 2;
    usize next = 0;
    std::vector<u64> inserted;
    while (table.count() < target && next < workload.keys64.size()) {
      const u64 k = workload.keys64[next++];
      if (table.insert(k, trace::value_for_key(k))) inserted.push_back(k);
    }

    pm.stats().clear();
    Histogram ins, del;
    u64 timed = 0;
    for (; timed < env.ops && next < workload.keys64.size(); ++timed, ++next) {
      const u64 t0 = now_ns();
      table.insert(workload.keys64[next], 1);
      ins.record(now_ns() - t0);
    }
    for (u64 i = 0; i < env.ops && i < inserted.size(); ++i) {
      const u64 t0 = now_ns();
      table.erase(inserted[i]);
      del.record(now_ns() - t0);
    }
    const double flushes_per_mut =
        static_cast<double>(pm.stats().lines_flushed) / static_cast<double>(2 * env.ops);

    // The recovery-only mode's on-NVM count is stale; recovery must still
    // restore exactness.
    const u64 logical = table.count();
    const auto report = table.recover();
    const bool consistent = report.recovered_count == logical;

    const bool eager = mode == CountMode::kEager;
    const bool same_line = order == CommitOrder::kSameLine;
    (eager ? eager_insert : same_line ? same_line_insert : lazy_insert)[crc] = ins.mean();
    t.add_row({eager       ? "eager (paper, Algorithms 1/3)"
               : same_line ? "recovery-only + same-line (maps)"
                           : "recovery-only, fenced",
               crc ? "on" : "off", format_ns(ins.mean()), format_ns(del.mean()),
               format_double(flushes_per_mut, 2), consistent ? "yes (post-recovery)" : "NO"});
  }
  t.print(std::cout);
  for (const bool crc : {false, true}) {
    const double saved = eager_insert[crc] - lazy_insert[crc];
    std::cout << "\nMeasured saving of recovery-derived words, checksums "
              << (crc ? "on" : "off") << ": " << format_ns(saved) << "/insert ("
              << format_double(saved / eager_insert[crc] * 100, 1) << "%).";
    const double same_line_saved = lazy_insert[crc] - same_line_insert[crc];
    std::cout << "\nMeasured saving of the same-line commit on top, checksums "
              << (crc ? "on" : "off") << ": " << format_ns(same_line_saved) << "/insert ("
              << format_double(same_line_saved / lazy_insert[crc] * 100, 1) << "%).";
  }
  std::cout << "\nRecovery recomputes the exact count and checksums either way "
               "(Algorithm 4).\n";
  return 0;
}
