// Service-level fault injection (satellite of the sharded front-end).
//
// Kill one shard's worker mid-batch with a FaultFs SimulatedCrash fired
// inside that shard's expansion publish, and hold the server to the
// degradation contract:
//   * the dying visit answers kShardDown (never wedges the ingest ring),
//   * later requests routed to the dead shard answer kShardDown fast,
//   * every other shard keeps serving kOk,
//   * the server stops cleanly,
//   * reopening the dead shard's file runs recovery and the flight
//     recorder names the dying expand as in flight at the crash.
// A second suite swaps the crash for syscall-style failures (kFail on
// the resize's `.migrate` target): the shard must DEGRADE per the PR 3
// MapDegradedError contract — puts answer kDegraded, reads stay kOk,
// nothing dies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/group_hash_map.hpp"
#include "nvm/crash_point.hpp"
#include "nvm/fault_fs.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace gh::service {
namespace {

namespace fs = std::filesystem;

std::string make_data_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ServiceOptions fault_service_options(const std::string& data_dir) {
  ServiceOptions o;
  o.shards = 4;
  o.data_dir = data_dir;
  // Tiny shards so the first few hundred puts force an expansion.
  o.map_options.initial_cells = 64;
  o.map_options.group_size = 8;
  o.map_options.flush_latency_ns = 0;
  return o;
}

/// Crash (simulated power failure) at the Nth filesystem step whose path
/// mentions `needle`. Thread-safe: workers of every shard call on_step
/// concurrently, only the matching shard's steps count.
struct PathCrashFs : nvm::FsPolicy {
  std::string needle;
  usize crash_after = 0;
  std::atomic<usize> seen{0};

  Decision on_step(const nvm::FsStep& step) override {
    if (step.path.find(needle) != std::string::npos ||
        step.path2.find(needle) != std::string::npos) {
      if (seen.fetch_add(1, std::memory_order_relaxed) == crash_after) {
        throw nvm::SimulatedCrash{};
      }
    }
    return Decision::kProceed;
  }
};

/// Fail (syscall error, not crash) every step touching a resize target
/// file, starving the resize the way ENOSPC would.
struct ExpandFailFs : nvm::FsPolicy {
  Decision on_step(const nvm::FsStep& step) override {
    if (step.path.find(".migrate") != std::string::npos ||
        step.path2.find(".migrate") != std::string::npos) {
      return Decision::kFail;
    }
    return Decision::kProceed;
  }
};

/// Drive distinct-key puts until `predicate(status_counts)` or the key
/// budget runs out. Returns every (key, status) answered.
struct PumpResult {
  u64 ok = 0;
  u64 degraded = 0;
  u64 shard_down = 0;
  std::vector<u64> ok_keys;
};

template <typename StopFn>
PumpResult pump_puts(ShardServer& server, u64 first_key, u64 max_keys, StopFn stop) {
  PumpResult r;
  Batch batch;
  u64 key = first_key;
  const u64 last = first_key + max_keys;
  while (key < last) {
    batch.clear();
    for (u32 i = 0; i < 32 && key < last; ++i, ++key) {
      batch.requests.push_back(Request{Op::kPut, key, key * 3});
    }
    server.execute(batch);
    const auto responses = batch.responses();
    for (usize i = 0; i < responses.size(); ++i) {
      switch (responses[i].status) {
        case Status::kOk:
          r.ok++;
          r.ok_keys.push_back(batch.requests[i].key);
          break;
        case Status::kDegraded: r.degraded++; break;
        case Status::kShardDown: r.shard_down++; break;
        default: break;
      }
    }
    if (stop(r)) break;
  }
  return r;
}

TEST(ServiceFault, WorkerCrashMidBatchAnswersShardDownAndNeverWedges) {
  const std::string dir = make_data_dir("gh_service_fault_crash");
  const std::string victim_file = "shard1.gh";
  constexpr u32 kVictim = 1;

  std::string victim_path;
  {
    ShardServer server(fault_service_options(dir));

    // Crash shard 1's worker at the FIRST filesystem step of its first
    // expansion (the create of its migration target). Installed
    // after construction so the initial shard-file creates pass.
    PathCrashFs policy;
    policy.needle = victim_file;
    const nvm::ScopedFsPolicy installed(&policy);

    const PumpResult crash_phase = pump_puts(
        server, /*first_key=*/1, /*max_keys=*/100'000,
        [](const PumpResult& r) { return r.shard_down > 0; });
    ASSERT_GT(crash_phase.shard_down, 0u)
        << "expansion crash never fired (ok=" << crash_phase.ok << ")";
    EXPECT_TRUE(server.shard_down(kVictim));

    // The ring must keep draining: requests to the dead shard answer
    // kShardDown, every other shard still serves.
    Batch batch;
    u64 live_ok = 0, dead_down = 0;
    for (u64 key = 200'000; key < 201'000; ++key) {
      batch.clear();
      batch.requests.push_back(Request{Op::kPut, key, key});
      server.execute(batch);
      const Status s = batch.responses()[0].status;
      if (ShardServer::shard_of(key, server.shards()) == kVictim) {
        EXPECT_EQ(s, Status::kShardDown);
        dead_down++;
      } else {
        EXPECT_EQ(s, Status::kOk);
        live_ok++;
      }
    }
    EXPECT_GT(live_ok, 0u);
    EXPECT_GT(dead_down, 0u);

    // Keys that were acknowledged on live shards still read back.
    for (const u64 key : crash_phase.ok_keys) {
      if (ShardServer::shard_of(key, server.shards()) == kVictim) continue;
      batch.clear();
      batch.requests.push_back(Request{Op::kGet, key, 0});
      server.execute(batch);
      ASSERT_EQ(batch.responses()[0].status, Status::kOk);
    }

    server.stop();  // clean teardown with a dead shard
    victim_path = dir + "/" + victim_file;
  }

  // Reopen the dead shard's file: recovery must succeed, and the flight
  // recorder must name the dying expand as in flight at the crash.
  ASSERT_TRUE(fs::exists(victim_path));
  MapOptions reopen_opts;
  reopen_opts.initial_cells = 64;
  reopen_opts.group_size = 8;
  auto reopened = GroupHashMap::open(victim_path, reopen_opts);
  if constexpr (obs::kEnabled) {
    const auto& scan = reopened.flight_scan_on_open();
    EXPECT_EQ(scan.records_torn, 0u);
    bool expand_in_flight = false;
    for (const auto& op : scan.in_flight) {
      expand_in_flight |= op.kind == obs::OpKind::kExpand;
    }
    EXPECT_TRUE(expand_in_flight)
        << "flight recorder does not name the dying expand ("
        << scan.in_flight.size() << " in-flight ops)";
    EXPECT_GT(reopened.open_recovery_report().in_flight_ops, 0u);
  }
  // The reopened shard is serviceable.
  reopened.put(123456, 654321);
  EXPECT_EQ(reopened.get(123456).value_or(0), 654321u);
  reopened.close();
  fs::remove_all(dir);
}

TEST(ServiceFault, RestartShardRevivesKilledShardAndServesCommittedData) {
  const std::string dir = make_data_dir("gh_service_fault_restart");
  constexpr u32 kVictim = 1;
  ShardServer server(fault_service_options(dir));

  // Phase 1: power-fail shard 1's worker inside its expansion publish.
  PumpResult crash_phase;
  {
    PathCrashFs policy;
    policy.needle = "shard1.gh";
    const nvm::ScopedFsPolicy installed(&policy);
    crash_phase = pump_puts(server, /*first_key=*/1, /*max_keys=*/100'000,
                            [](const PumpResult& r) { return r.shard_down > 0; });
  }
  ASSERT_GT(crash_phase.shard_down, 0u);
  ASSERT_TRUE(server.shard_down(kVictim));

  // restart_shard is a no-op on a live shard.
  u32 live = kVictim == 0 ? 1 : 0;
  EXPECT_FALSE(server.restart_shard(live));

  // Phase 2: revive. The fault is gone, so the reopen (recovery + orphan
  // reclaim) succeeds and the worker swaps the fresh map in.
  ASSERT_TRUE(server.restart_shard(kVictim));
  EXPECT_FALSE(server.shard_down(kVictim));
  EXPECT_FALSE(server.restart_shard(kVictim)) << "already revived";

  // Every put acknowledged kOk before the crash — on ANY shard, including
  // the victim — must still read back: the revival ran the normal
  // recovery path over the shard's file, and committed ops survive a
  // power failure by the paper's argument.
  Batch batch;
  for (const u64 key : crash_phase.ok_keys) {
    batch.clear();
    batch.requests.push_back(Request{Op::kGet, key, 0});
    server.execute(batch);
    ASSERT_EQ(batch.responses()[0].status, Status::kOk) << "lost committed key " << key;
    ASSERT_EQ(batch.responses()[0].value, key * 3) << key;
  }

  // The revived shard takes new writes — and can expand again, now that
  // the fault is gone.
  const PumpResult after = pump_puts(server, /*first_key=*/500'000, /*max_keys=*/2'000,
                                     [](const PumpResult&) { return false; });
  EXPECT_EQ(after.shard_down, 0u);
  EXPECT_EQ(after.degraded, 0u);
  EXPECT_EQ(after.ok, 2'000u);

  server.stop();
  const obs::Snapshot snap = server.snapshot();
  for (const auto& brief : snap.per_shard) EXPECT_FALSE(brief.degraded) << brief.shard;
  fs::remove_all(dir);
}

TEST(ServiceFault, ReadOnlyBatchToKilledShardAnswersShardDownThenReadsReopenedMap) {
  // A batch of gets alone is served on the client's thread when its
  // shards are idle. A dead shard must still answer kShardDown there,
  // and once restart_shard installs the reopened map, the same reads
  // must see it.
  const std::string dir = make_data_dir("gh_service_fault_inline_reads");
  constexpr u32 kVictim = 1;
  ShardServer server(fault_service_options(dir));
  PumpResult crash_phase;
  {
    PathCrashFs policy;
    policy.needle = "shard1.gh";
    const nvm::ScopedFsPolicy installed(&policy);
    crash_phase = pump_puts(server, /*first_key=*/1, /*max_keys=*/100'000,
                            [](const PumpResult& r) { return r.shard_down > 0; });
  }
  ASSERT_TRUE(server.shard_down(kVictim));

  std::vector<u64> victim_keys;
  std::vector<u64> live_keys;
  for (const u64 key : crash_phase.ok_keys) {
    const bool on_victim = ShardServer::shard_of(key, server.shards()) == kVictim;
    auto& keys = on_victim ? victim_keys : live_keys;
    if (keys.size() < 24) keys.push_back(key);
  }
  ASSERT_FALSE(victim_keys.empty());
  ASSERT_FALSE(live_keys.empty());
  const auto read_all = [&](Batch& batch) {
    batch.clear();
    for (const u64 key : victim_keys) batch.requests.push_back(Request{Op::kGet, key, 0});
    for (const u64 key : live_keys) batch.requests.push_back(Request{Op::kGet, key, 0});
    server.execute(batch);
  };

  Batch batch;
  read_all(batch);
  for (usize i = 0; i < batch.requests.size(); ++i) {
    const u64 key = batch.requests[i].key;
    const Response r = batch.responses()[i];
    if (i < victim_keys.size()) {
      EXPECT_EQ(r.status, Status::kShardDown) << key;
    } else {
      ASSERT_EQ(r.status, Status::kOk) << key;
      EXPECT_EQ(r.value, key * 3) << key;
    }
  }

  ASSERT_TRUE(server.restart_shard(kVictim));
  read_all(batch);
  for (usize i = 0; i < batch.requests.size(); ++i) {
    const u64 key = batch.requests[i].key;
    ASSERT_EQ(batch.responses()[i].status, Status::kOk) << "lost committed key " << key;
    EXPECT_EQ(batch.responses()[i].value, key * 3) << key;
  }
  server.stop();
  fs::remove_all(dir);
}

TEST(ServiceFault, RestartShardResumesInterruptedMigration) {
  // Kill a shard whose map is mid-online-resize (crash inside the
  // .migrate machinery), then revive it: restart_shard's reopen must
  // resume the migration from the durable cursor, and the shard's idle
  // worker loop must drain it to completion in the background — no
  // further traffic required.
  const std::string dir = make_data_dir("gh_service_fault_restart_mig");
  constexpr u32 kVictim = 1;
  ServiceOptions opts = fault_service_options(dir);
  opts.map_options.migrate_groups_per_op = 1;
  ShardServer server(opts);

  // One-shot crash on the FIRST durable cursor advance anywhere in the
  // process: the cursor is armed and at least one group has moved, so
  // whichever shard's worker hits it dies provably mid-migration. One
  // shot only — the policy stays installed while the surviving shards
  // keep migrating, and they must not die too.
  struct CursorCrashOnce : nvm::CrashPointPolicy {
    std::atomic<bool> fired{false};
    void on_point(const char* name) override {
      if (std::string_view(name) != "migrate.cursor.advanced") return;
      if (!fired.exchange(true)) throw nvm::SimulatedCrash{};
    }
  };

  PumpResult crash_phase;
  CursorCrashOnce policy;
  {
    const nvm::ScopedCrashPoints installed(&policy);
    crash_phase = pump_puts(server, /*first_key=*/1, /*max_keys=*/100'000,
                            [](const PumpResult& r) { return r.shard_down > 0; });
  }
  ASSERT_TRUE(policy.fired.load()) << "no shard ever advanced a migration cursor";
  ASSERT_GT(crash_phase.shard_down, 0u) << "migration crash never fired";

  // The crash lands on whichever shard migrated first.
  u32 victim = kVictim;
  for (u32 s = 0; s < 4; ++s) {
    if (server.shard_down(s)) victim = s;
  }
  ASSERT_TRUE(server.shard_down(victim));
  const std::string mig_file = dir + "/shard" + std::to_string(victim) + ".gh.migrate";
  ASSERT_TRUE(fs::exists(mig_file)) << "crash point fired but no durable migration target";

  ASSERT_TRUE(server.restart_shard(victim));
  EXPECT_FALSE(server.shard_down(victim));

  Batch batch;
  for (const u64 key : crash_phase.ok_keys) {
    batch.clear();
    batch.requests.push_back(Request{Op::kGet, key, 0});
    server.execute(batch);
    ASSERT_EQ(batch.responses()[0].status, Status::kOk) << "lost committed key " << key;
    ASSERT_EQ(batch.responses()[0].value, key * 3) << key;
  }

  // Idle drain: with no traffic at all, every worker's background
  // migrate_step bursts must finish their shard's migration — resumed or
  // not — and retire the .migrate targets.
  const auto any_migrating = [&] {
    for (u32 s = 0; s < 4; ++s) {
      if (fs::exists(dir + "/shard" + std::to_string(s) + ".gh.migrate")) return true;
    }
    return false;
  };
  for (int spin = 0; spin < 10'000 && any_migrating(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(fs::exists(mig_file)) << "idle worker never drained the resumed migration";
  EXPECT_FALSE(any_migrating()) << "an idle worker left its migration parked";

  server.stop();
  const obs::Snapshot snap = server.snapshot();
  EXPECT_GE(snap.migration.resumed, 1u);
  EXPECT_GT(snap.migration.bg_steps, 0u) << "drain must have run on the idle loop";
  EXPECT_EQ(snap.migration.active, 0u);
  fs::remove_all(dir);
}

TEST(ServiceFault, ExpandFailureDegradesPutsButKeepsServing) {
  const std::string dir = make_data_dir("gh_service_fault_degraded");
  ShardServer server(fault_service_options(dir));

  ExpandFailFs policy;
  const nvm::ScopedFsPolicy installed(&policy);

  const PumpResult r = pump_puts(
      server, /*first_key=*/1, /*max_keys=*/100'000,
      [](const PumpResult& res) { return res.degraded > 0; });
  ASSERT_GT(r.degraded, 0u) << "no put ever hit the degraded path";
  EXPECT_EQ(r.shard_down, 0u);
  for (u32 s = 0; s < server.shards(); ++s) EXPECT_FALSE(server.shard_down(s));

  // The degradation contract: reads of acknowledged keys stay kOk.
  Batch batch;
  for (const u64 key : r.ok_keys) {
    batch.clear();
    batch.requests.push_back(Request{Op::kGet, key, 0});
    server.execute(batch);
    ASSERT_EQ(batch.responses()[0].status, Status::kOk);
    ASSERT_EQ(batch.responses()[0].value, key * 3);
  }

  server.stop();
  const obs::Snapshot snap = server.snapshot();
  EXPECT_TRUE(snap.lifecycle.degraded);
  EXPECT_GT(snap.lifecycle.expand_failures, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gh::service
