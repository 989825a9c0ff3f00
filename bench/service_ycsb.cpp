// Service-level YCSB bench — the sharded front-end under mixed traffic.
//
// Drives the ShardServer with the A/B/C core-workload mixes at ≥4
// shards / ≥4 client threads over a Zipf(0.99) keyspace, reporting
// aggregate QPS and p50/p99/p999 end-to-end tail latency from the
// service obs histograms. YCSB-C additionally runs the NAIVE
// one-op-per-request baseline so the batched-ingest win (grouped shard
// visits → one find_batch per visit, PR 6's prefetch + fence-coalescing
// path) shows up as a speedup ratio on the same machine and seed. A last
// YCSB-B run starts the shards 64 cells deep with online resize on, so
// the tail columns show what clients see while every shard migrates
// incrementally mid-run.
//
//   service_ycsb [--shards=4] [--clients=4] [--ops=100000 per client]
//                [--keys=65536] [--batch=64] [--seed from GH_SEED]
#include <iostream>

#include "bench_common.hpp"
#include "service/service.hpp"
#include "service/ycsb_driver.hpp"

namespace {

using namespace gh;
using namespace gh::bench;

struct RunResult {
  service::DriverReport report;
  obs::Snapshot snapshot;
};

RunResult run(const service::ServiceOptions& sopts, const service::DriverOptions& dopts) {
  service::ShardServer server(sopts);
  RunResult r;
  r.report = service::run_ycsb(server, dopts);
  server.stop();
  r.snapshot = server.snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_env();
  print_banner("Service: sharded front-end, YCSB mixes",
               "batched ingest vs one-op-per-request across shard workers", env);

  service::ServiceOptions sopts;
  sopts.shards = static_cast<u32>(cli.get_u64("shards", 4));
  sopts.batch_window = static_cast<u32>(cli.get_u64("window", 64));

  service::DriverOptions dopts;
  dopts.clients = static_cast<u32>(cli.get_u64("clients", 4));
  dopts.batch = static_cast<u32>(cli.get_u64("batch", 64));
  dopts.keys = cli.get_u64("keys", 1u << 16);
  dopts.ops_per_client = cli.get_u64("ops", 100'000);
  dopts.seed = env.seed;

  u64 cells = 64;
  while (cells < dopts.keys * 2 / sopts.shards) cells <<= 1;
  sopts.map_options.initial_cells = cells;
  sopts.map_options.flush_latency_ns = env.flush_latency_ns;

  std::cout << sopts.shards << " shards, " << dopts.clients << " clients, batch "
            << dopts.batch << ", " << format_count(dopts.keys) << " keys, "
            << format_count(dopts.ops_per_client) << " ops/client, Zipf(0.99)\n\n";

  TablePrinter t({"workload", "mode", "qps", "get p50", "get p99", "get p999"});
  double ycsbc_batched = 0, ycsbc_naive = 0;
  for (const char* w : {"a", "b", "c"}) {
    dopts.mix = service::mix_for(w);
    sopts.naive = false;
    const RunResult batched = run(sopts, dopts);
    t.add_row({dopts.mix.name, "batched",
               format_double(batched.report.qps / 1000.0, 1) + " kops/s",
               format_ns(batched.report.latency.find.p50_ns),
               format_ns(batched.report.latency.find.p99_ns),
               format_ns(batched.report.latency.find.p999_ns)});
    if (std::string(w) == "c") {
      ycsbc_batched = batched.report.qps;
      sopts.naive = true;
      const RunResult naive = run(sopts, dopts);
      ycsbc_naive = naive.report.qps;
      t.add_row({dopts.mix.name, "naive",
                 format_double(naive.report.qps / 1000.0, 1) + " kops/s",
                 format_ns(naive.report.latency.find.p50_ns),
                 format_ns(naive.report.latency.find.p99_ns),
                 format_ns(naive.report.latency.find.p999_ns)});
    }
  }
  // Forced mid-run resize: undersized shards draining one group per op, so
  // every shard migrates repeatedly while serving YCSB-B. The row's p99
  // is the tail clients see DURING incremental migrations — with the
  // default inline drain this column would carry the whole rehash.
  {
    service::ServiceOptions ropts = sopts;
    ropts.naive = false;
    ropts.map_options.initial_cells = 64;
    ropts.map_options.migrate_groups_per_op = 1;
    dopts.mix = service::mix_for("b");
    const RunResult resized = run(ropts, dopts);
    t.add_row({"ycsb-b+resize", "batched",
               format_double(resized.report.qps / 1000.0, 1) + " kops/s",
               format_ns(resized.report.latency.find.p50_ns),
               format_ns(resized.report.latency.find.p99_ns),
               format_ns(resized.report.latency.find.p999_ns)});
    t.print(std::cout);
    const obs::MigrationSnapshot& mig = resized.snapshot.migration;
    std::cout << "\nresize run: " << mig.started << " migrations started, " << mig.completed
              << " completed, "
              << mig.help_steps << " help-along steps, " << mig.bg_steps
              << " idle-drain steps\n";
  }
  if (ycsbc_naive > 0) {
    std::cout << "\nYCSB-C batched ingest speedup over naive: "
              << format_double(ycsbc_batched / ycsbc_naive, 2) << "x\n";
  }
  return 0;
}
