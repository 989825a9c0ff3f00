// Sharded service front-end: routing, batched-ingest correctness and
// backpressure.
//
// The differential suites hold the service to the same contract as a
// single reference map: whatever mix of batches, clients and ring sizes
// the transport sees, the answers must match a scalar std::unordered_map
// applied in the same order. Batched and naive ingest modes must be
// observationally identical — the batching window is a performance
// lever, not a semantics change.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/concurrent_map.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace gh::service {
namespace {

MapOptions small_map_options() {
  MapOptions o;
  o.initial_cells = 1u << 10;
  o.group_size = 16;
  o.flush_latency_ns = 0;
  return o;
}

ServiceOptions small_service_options() {
  ServiceOptions o;
  o.shards = 4;
  o.map_options = small_map_options();
  return o;
}

TEST(IngestRing, PushPopFifoAndFull) {
  IngestRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  WorkItem w;
  EXPECT_FALSE(ring.try_pop(w));
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(WorkItem{nullptr, i, 1}));
  }
  EXPECT_FALSE(ring.try_push(WorkItem{nullptr, 99, 1}));  // full = backpressure
  for (u32 i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(w));
    EXPECT_EQ(w.begin, i);
  }
  EXPECT_FALSE(ring.try_pop(w));
  // Wrap-around keeps working.
  EXPECT_TRUE(ring.try_push(WorkItem{nullptr, 5, 1}));
  ASSERT_TRUE(ring.try_pop(w));
  EXPECT_EQ(w.begin, 5u);
}

TEST(ShardService, EmptyBatchReturnsImmediately) {
  ShardServer server(small_service_options());
  Batch batch;
  server.execute(batch);
  EXPECT_TRUE(batch.responses().empty());
  server.stop();
}

TEST(ShardService, DifferentialVsReferenceMap) {
  // Single client, random mixed batches with per-batch distinct keys (so
  // grouped-by-kind execution equals sequential execution), checked
  // response-by-response against a reference map.
  for (const bool naive : {false, true}) {
    ServiceOptions opts = small_service_options();
    opts.naive = naive;
    ShardServer server(opts);
    std::unordered_map<u64, u64> reference;
    Xoshiro256 rng(7);
    const u32 kUniverse = 61;  // small → plenty of hits and re-puts
    Batch batch;
    for (u32 round = 0; round < 300; ++round) {
      batch.clear();
      // Distinct keys per batch: a shuffled prefix of the universe.
      std::vector<u64> ks(kUniverse);
      for (u32 i = 0; i < kUniverse; ++i) ks[i] = 1000 + i;
      for (u32 i = kUniverse - 1; i > 0; --i) std::swap(ks[i], ks[rng.next_below(i + 1)]);
      const u32 n = 1 + static_cast<u32>(rng.next_below(kUniverse));
      std::vector<Request>& reqs = batch.requests;
      for (u32 i = 0; i < n; ++i) {
        switch (rng.next_below(3)) {
          case 0: reqs.push_back(Request{Op::kGet, ks[i], 0}); break;
          case 1: reqs.push_back(Request{Op::kPut, ks[i], rng.next() | 1}); break;
          default: reqs.push_back(Request{Op::kErase, ks[i], 0}); break;
        }
      }
      server.execute(batch);
      const auto responses = batch.responses();
      ASSERT_EQ(responses.size(), n);
      for (u32 i = 0; i < n; ++i) {
        const Request& rq = reqs[i];
        const Response& rs = responses[i];
        switch (rq.op) {
          case Op::kGet: {
            const auto it = reference.find(rq.key);
            if (it == reference.end()) {
              EXPECT_EQ(rs.status, Status::kNotFound) << "round " << round;
            } else {
              EXPECT_EQ(rs.status, Status::kOk);
              EXPECT_EQ(rs.value, it->second);
            }
            break;
          }
          case Op::kPut:
            EXPECT_EQ(rs.status, Status::kOk);
            reference[rq.key] = rq.value;
            break;
          case Op::kErase:
            EXPECT_EQ(rs.status,
                      reference.erase(rq.key) ? Status::kOk : Status::kNotFound);
            break;
        }
      }
    }
    server.stop();
    const obs::Snapshot snap = server.snapshot();
    EXPECT_EQ(snap.size, reference.size());
    EXPECT_EQ(snap.source, "ShardServer");
    EXPECT_EQ(snap.per_shard.size(), 4u);
  }
}

TEST(ShardService, BatchGroupsByKindGetsBeforePutsBeforeErases) {
  // Documented window semantics: within one batch, a shard's requests
  // execute grouped by kind. A get and an erase of a key the same batch
  // also puts see the PRE-batch state; the put itself is applied.
  ShardServer server(small_service_options());
  Batch batch;
  batch.requests = {Request{Op::kPut, 42, 1}};
  server.execute(batch);

  batch.clear();
  batch.requests = {
      Request{Op::kGet, 42, 0},    // sees the pre-batch value…
      Request{Op::kPut, 42, 2},    // …then the put applies…
      Request{Op::kErase, 42, 0},  // …then the erase removes it.
  };
  server.execute(batch);
  const auto rs = batch.responses();
  EXPECT_EQ(rs[0].status, Status::kOk);
  EXPECT_EQ(rs[0].value, 1u);
  EXPECT_EQ(rs[1].status, Status::kOk);
  EXPECT_EQ(rs[2].status, Status::kOk);

  batch.clear();
  batch.requests = {Request{Op::kGet, 42, 0}};
  server.execute(batch);
  EXPECT_EQ(batch.responses()[0].status, Status::kNotFound);
}

TEST(ShardService, DuplicatePutsLastWinsWithinBatch) {
  ShardServer server(small_service_options());
  Batch batch;
  for (u64 v = 1; v <= 9; ++v) batch.requests.push_back(Request{Op::kPut, 77, v * 11});
  server.execute(batch);
  for (const Response& r : batch.responses()) EXPECT_EQ(r.status, Status::kOk);

  batch.clear();
  batch.requests = {Request{Op::kGet, 77, 0}};
  server.execute(batch);
  EXPECT_EQ(batch.responses()[0].status, Status::kOk);
  EXPECT_EQ(batch.responses()[0].value, 99u);
}

TEST(ShardService, MultiClientDisjointRangesAllLand) {
  ServiceOptions opts = small_service_options();
  ShardServer server(opts);
  constexpr u32 kClients = 4;
  constexpr u64 kPerClient = 2000;
  std::vector<std::thread> clients;
  for (u32 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Batch batch;
      const u64 base = 1 + c * kPerClient;
      for (u64 k = 0; k < kPerClient;) {
        batch.clear();
        for (u32 b = 0; b < 97 && k < kPerClient; ++b, ++k) {
          batch.requests.push_back(Request{Op::kPut, base + k, base + k});
        }
        server.execute(batch);
        for (const Response& r : batch.responses()) {
          ASSERT_EQ(r.status, Status::kOk);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every key readable, value echoes key; the roll-up sums to the total.
  Batch batch;
  for (u32 c = 0; c < kClients; ++c) {
    const u64 base = 1 + c * kPerClient;
    batch.clear();
    for (u64 k = 0; k < kPerClient; ++k) {
      batch.requests.push_back(Request{Op::kGet, base + k, 0});
    }
    server.execute(batch);
    const auto rs = batch.responses();
    for (u64 k = 0; k < kPerClient; ++k) {
      ASSERT_EQ(rs[k].status, Status::kOk);
      ASSERT_EQ(rs[k].value, base + k);
    }
  }
  server.stop();
  const obs::Snapshot snap = server.snapshot();
  EXPECT_EQ(snap.size, kClients * kPerClient);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(snap.latency.find.count + snap.latency.insert.count, 0u);
  }
}

TEST(ShardService, TinyRingBackpressureNeverWedges) {
  // A 2-slot ring with a 1-item batching window under 4 concurrent
  // clients: every push contends, most spin. The run must complete with
  // correct answers — backpressure, not deadlock or loss.
  ServiceOptions opts = small_service_options();
  opts.ring_capacity = 2;
  opts.batch_window = 1;
  ShardServer server(opts);
  std::vector<std::thread> clients;
  std::atomic<u64> oks{0};
  for (u32 c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Batch batch;
      Xoshiro256 rng(c + 1);
      u64 local = 0;
      for (u32 round = 0; round < 200; ++round) {
        batch.clear();
        for (u32 i = 0; i < 32; ++i) {
          batch.requests.push_back(Request{Op::kPut, (rng.next() & hash::Cell16::kMaxKey) | 1, i});
        }
        server.execute(batch);
        for (const Response& r : batch.responses()) local += r.status == Status::kOk;
      }
      oks += local;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(oks.load(), 4u * 200u * 32u);
  server.stop();
}

/// A put's value: the version in the high half, a check word of (key,
/// version) in the low half, so a get can tell a written value from a
/// torn or misrouted one.
u64 checked_value(u64 key, u64 version) {
  const u64 check = (key * 0x9E3779B97F4A7C15ull ^ version * 0xC2B2AE3D27D4EB4Full) >> 32;
  return (version << 32) | check;
}

bool value_checks(u64 key, u64 value) { return checked_value(key, value >> 32) == value; }

TEST(ShardService, InlineReadsAndQueuedWritesTorture) {
  // 4 clients mix read-only batches (served inline when the shard is
  // idle) with write batches (always queued) through 2-slot rings.
  // Every batch must finish — a worker that slept through queued work
  // would stall it — and every get must return a value some put of that
  // key wrote.
  ServiceOptions opts = small_service_options();
  opts.shards = 2;
  opts.ring_capacity = 2;
  ShardServer server(opts);
  constexpr u64 kKeys = 128;
  Batch preload;
  for (u64 k = 1; k <= kKeys; ++k) {
    preload.requests.push_back(Request{Op::kPut, k, checked_value(k, 0)});
  }
  server.execute(preload);

  constexpr u32 kClients = 4;
  constexpr u32 kRounds = 400;
  constexpr auto kDeadline = std::chrono::seconds(30);
  std::atomic<u32> finished{0};
  std::atomic<u64> bad_values{0};
  std::atomic<u64> slow_batches{0};
  std::vector<std::thread> clients;
  for (u32 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Batch batch;
      Xoshiro256 rng(100 + c);
      for (u32 round = 0; round < kRounds; ++round) {
        batch.clear();
        const bool writes = rng.next_below(3) == 0;
        for (u32 i = 0; i < 8; ++i) {
          const u64 k = 1 + rng.next_below(kKeys);
          if (writes && i % 2 == 0) {
            const u64 version = 1 + rng.next_below(1000);
            batch.requests.push_back(Request{Op::kPut, k, checked_value(k, version)});
          } else {
            batch.requests.push_back(Request{Op::kGet, k, 0});
          }
        }
        const auto t0 = std::chrono::steady_clock::now();
        server.execute(batch);
        if (std::chrono::steady_clock::now() - t0 > kDeadline) slow_batches++;
        for (usize i = 0; i < batch.requests.size(); ++i) {
          const Request& rq = batch.requests[i];
          const Response& rs = batch.responses()[i];
          if (rs.status != Status::kOk ||
              (rq.op == Op::kGet && !value_checks(rq.key, rs.value))) {
            bad_values++;
          }
        }
      }
      finished++;
    });
  }
  // A batch that never finishes cannot be joined: fail loudly instead.
  const auto give_up = std::chrono::steady_clock::now() + 4 * kDeadline;
  while (finished.load() < kClients) {
    if (std::chrono::steady_clock::now() > give_up) {
      std::fprintf(stderr, "InlineReadsAndQueuedWritesTorture: a client is wedged\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(slow_batches.load(), 0u) << "a batch waited past the deadline";
  EXPECT_EQ(bad_values.load(), 0u) << "a get returned a value no put wrote";
  server.stop();
}

TEST(ShardService, ReaderLettingGoWakesTheWorkerForAQueuedWrite) {
  // One shard, two clients released together each round: a reader whose
  // long read-only slice is served inline, and a writer whose put queues.
  // When the put lands while the reader owns the shard, the woken worker
  // finds the flag taken and sleeps; nobody else sends traffic, so only
  // the reader's doorbell as it lets go can finish the writer's batch.
  ServiceOptions opts = small_service_options();
  opts.shards = 1;
  opts.map_options.initial_cells = 1u << 14;
  ShardServer server(opts);
  Batch reads;
  for (u64 k = 1; k <= 4096; ++k) reads.requests.push_back(Request{Op::kPut, k, k});
  server.execute(reads);
  for (Request& rq : reads.requests) rq = Request{Op::kGet, rq.key, 0};
  Batch write;
  write.requests.push_back(Request{Op::kPut, 1, 1});

  constexpr u32 kRounds = 300;
  std::atomic<u32> round{0};
  std::atomic<u32> done{0};
  const auto client = [&](Batch& batch) {
    for (u32 r = 1; r <= kRounds; ++r) {
      while (round.load(std::memory_order_acquire) < r) std::this_thread::yield();
      server.execute(batch);
      done.fetch_add(1, std::memory_order_release);
    }
  };
  std::thread reader(client, std::ref(reads));
  std::thread writer(client, std::ref(write));
  for (u32 r = 1; r <= kRounds; ++r) {
    round.store(r, std::memory_order_release);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (done.load(std::memory_order_acquire) < 2 * r) {
      if (std::chrono::steady_clock::now() > give_up) {
        std::fprintf(stderr, "ReaderLettingGoWakesTheWorker: round %u wedged\n", r);
        std::abort();
      }
      std::this_thread::yield();
    }
  }
  reader.join();
  writer.join();
  for (const Response& rs : reads.responses()) ASSERT_EQ(rs.status, Status::kOk);
  EXPECT_EQ(write.responses()[0].status, Status::kOk);
  server.stop();
}

TEST(ShardService, RejectsKeyAboveMaxKeyBeforeQueueingAnything) {
  // A key with the commit bit set cannot be stored: the whole batch is
  // refused on the client thread, so no shard applies its share of it.
  ShardServer server(small_service_options());
  Batch batch;
  for (u64 k = 1; k <= 64; ++k) batch.requests.push_back(Request{Op::kPut, k, k});
  batch.requests.push_back(Request{Op::kPut, hash::Cell16::kMaxKey + 1, 7});
  EXPECT_THROW(server.execute(batch), std::invalid_argument);
  batch.clear();
  batch.requests = {Request{Op::kGet, ~u64{0}, 0}};
  EXPECT_THROW(server.execute(batch), std::invalid_argument);

  batch.clear();
  for (u64 k = 1; k <= 64; ++k) batch.requests.push_back(Request{Op::kGet, k, 0});
  batch.requests.push_back(Request{Op::kPut, hash::Cell16::kMaxKey, 9});
  server.execute(batch);
  for (u64 k = 0; k < 64; ++k) EXPECT_EQ(batch.responses()[k].status, Status::kNotFound);
  EXPECT_EQ(batch.responses()[64].status, Status::kOk);
  server.stop();
  EXPECT_EQ(server.snapshot().size, 1u);
}

TEST(ShardService, RoutingMatchesConcurrentWrapperSeed) {
  // shard_of must be a pure function of (key, shards): pinned values so
  // the routing seed can never drift silently from the concurrent
  // wrappers' (which would split a key's history across shards after a
  // mixed deployment).
  for (const u64 key : {1ull, 42ull, 0xdeadbeefull, ~0ull}) {
    const u32 s = ShardServer::shard_of(key, 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(ShardServer::shard_of(key, 8), s);
    // Power-of-two masking: the 4-shard route is the 8-shard route mod 4
    // only when the hash's low bits route — document the mask contract.
    EXPECT_EQ(ShardServer::shard_of(key, 4), s & 3u);
  }
}

TEST(ShardService, RoutingMatchesConcurrentWrapper) {
  // The service and the embedded wrapper route through one function, so
  // a key lands on the same shard index in both at every shard count.
  for (u32 n = 1; n <= 64; n *= 2) {
    const ConcurrentGroupHashMap map(n, {.initial_cells = 64 * n});
    Xoshiro256 rng(n);
    for (int i = 0; i < 2000; ++i) {
      const u64 key = rng.next() >> 1;
      ASSERT_EQ(map.shard_index(key), ShardServer::shard_of(key, n)) << "key " << key;
    }
  }
}

TEST(ShardService, NaiveAndBatchedProduceIdenticalResponses) {
  ServiceOptions batched_opts = small_service_options();
  ServiceOptions naive_opts = small_service_options();
  naive_opts.naive = true;
  ShardServer batched(batched_opts);
  ShardServer naive(naive_opts);
  Xoshiro256 rng(99);
  Batch b1, b2;
  for (u32 round = 0; round < 100; ++round) {
    b1.clear();
    b2.clear();
    // Distinct keys per batch (see DifferentialVsReferenceMap).
    std::vector<u64> ks(40);
    for (u32 i = 0; i < 40; ++i) ks[i] = 500 + i;
    for (u32 i = 39; i > 0; --i) std::swap(ks[i], ks[rng.next_below(i + 1)]);
    const u32 n = 1 + static_cast<u32>(rng.next_below(40));
    for (u32 i = 0; i < n; ++i) {
      const u32 kind = static_cast<u32>(rng.next_below(3));
      const Request rq{static_cast<Op>(kind), ks[i],
                       kind == 1 ? rng.next() | 1 : 0};
      b1.requests.push_back(rq);
      b2.requests.push_back(rq);
    }
    batched.execute(b1);
    naive.execute(b2);
    const auto r1 = b1.responses();
    const auto r2 = b2.responses();
    ASSERT_EQ(r1.size(), r2.size());
    for (u32 i = 0; i < n; ++i) {
      EXPECT_EQ(r1[i].status, r2[i].status) << "round " << round << " i " << i;
      EXPECT_EQ(r1[i].value, r2[i].value);
    }
  }
  batched.stop();
  naive.stop();
  EXPECT_EQ(batched.snapshot().size, naive.snapshot().size);
}

TEST(ShardService, FullTracingEmitsLinkedRequestRingWaitVisitAndOpSpans) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  // trace_mode=kFull stamps every batch; after the run the global span
  // rings must contain complete request trees: request (root, parent 0)
  // → ring_wait + shard_visit children → op spans under the visit.
  obs::SpanCollector& collector = obs::SpanCollector::global();
  (void)collector.drain_all();  // discard anything earlier tests left behind

  ServiceOptions opts = small_service_options();
  opts.trace_mode = obs::TraceMode::kFull;
  opts.map_options.latency_sample_shift = 0;  // phases populate densely
  ShardServer server(opts);
  Xoshiro256 rng(3);
  Batch batch;
  for (u32 round = 0; round < 50; ++round) {
    batch.clear();
    for (u32 i = 0; i < 16; ++i) {
      const u64 k = 1 + rng.next_below(500);
      switch (rng.next_below(3)) {
        case 0: batch.requests.push_back(Request{Op::kGet, k, 0}); break;
        case 1: batch.requests.push_back(Request{Op::kPut, k, k}); break;
        default: batch.requests.push_back(Request{Op::kErase, k, 0}); break;
      }
    }
    server.execute(batch);
  }
  server.stop();
  const std::vector<obs::SpanRecord> spans = collector.drain_all();
  ASSERT_FALSE(spans.empty());

  // Index the forest. Roots are kRequest spans with parent 0.
  std::unordered_map<u32, const obs::SpanRecord*> by_id;
  u64 requests = 0, ring_waits = 0, visits = 0, ops = 0;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_GE(s.t_end, s.t_start);
    EXPECT_LT(s.kind, obs::kSpanKinds);
    by_id[s.span_id] = &s;
    switch (static_cast<obs::SpanKind>(s.kind)) {
      case obs::SpanKind::kRequest:
        EXPECT_EQ(s.parent_id, 0u) << "request spans are roots";
        ++requests;
        break;
      case obs::SpanKind::kRingWait: ++ring_waits; break;
      case obs::SpanKind::kShardVisit: ++visits; break;
      case obs::SpanKind::kOpInsert:
      case obs::SpanKind::kOpFind:
      case obs::SpanKind::kOpErase: ++ops; break;
      default: break;
    }
  }
  EXPECT_GT(requests, 0u);
  EXPECT_GT(ring_waits, 0u);
  EXPECT_GT(visits, 0u);
  EXPECT_GT(ops, 0u);

  // Linkage: every surviving non-root span whose parent also survived
  // must agree on trace_id, and the child kinds sit where the
  // propagation puts them (ring_wait/visit under request, ops under a
  // visit, phase children under an op).
  u64 linked = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) continue;
    const auto it = by_id.find(s.parent_id);
    if (it == by_id.end()) continue;  // parent overwritten in the ring
    const obs::SpanRecord& parent = *it->second;
    EXPECT_EQ(parent.trace_id, s.trace_id)
        << "child " << span_kind_name(static_cast<obs::SpanKind>(s.kind))
        << " crossed traces";
    switch (static_cast<obs::SpanKind>(s.kind)) {
      case obs::SpanKind::kRingWait:
      case obs::SpanKind::kShardVisit:
      case obs::SpanKind::kWake:
        EXPECT_EQ(parent.kind, static_cast<u8>(obs::SpanKind::kRequest));
        break;
      case obs::SpanKind::kOpInsert:
      case obs::SpanKind::kOpFind:
      case obs::SpanKind::kOpErase:
      case obs::SpanKind::kOpMigrate:
      case obs::SpanKind::kOpOther:
        EXPECT_EQ(parent.kind, static_cast<u8>(obs::SpanKind::kShardVisit));
        break;
      case obs::SpanKind::kPhaseProbe:
      case obs::SpanKind::kPhasePersist:
      case obs::SpanKind::kPhaseFence:
      case obs::SpanKind::kPhaseMigrateHelp:
        EXPECT_GE(parent.kind, static_cast<u8>(obs::SpanKind::kOpInsert));
        EXPECT_LE(parent.kind, static_cast<u8>(obs::SpanKind::kOpOther));
        break;
      default: break;
    }
    ++linked;
  }
  EXPECT_GT(linked, 0u) << "no parent-child pair survived the rings";

  // The phase accumulators saw the same run: attributed time exists and
  // the ring-wait bucket (worker-side attribution) is populated.
  const obs::Snapshot snap = server.snapshot();
  EXPECT_GT(snap.phases.total_op_ns(), 0u);
  u64 ring_wait_ns = 0;
  for (const auto& row : snap.phases.rows) {
    ring_wait_ns += row.phase_ns[static_cast<usize>(obs::Phase::kRingWait)];
  }
  EXPECT_GT(ring_wait_ns, 0u);
}

TEST(ShardService, ReadOnlyBatchServedWithoutTheRingUnderFullTracing) {
  if (!obs::kEnabled) GTEST_SKIP() << "GH_OBS_OFF build";
  // A batch of gets alone is served on the client's thread when its
  // shards are idle: its trace has shard_visit spans and no ring_wait.
  // A batch with a put still queues its slices: ring_wait and visit.
  obs::SpanCollector& collector = obs::SpanCollector::global();
  ServiceOptions opts = small_service_options();
  opts.trace_mode = obs::TraceMode::kFull;
  ShardServer server(opts);
  Batch batch;
  for (u64 k = 1; k <= 256; ++k) batch.requests.push_back(Request{Op::kPut, k, k});
  server.execute(batch);
  (void)collector.drain_all();

  // A worker may still hold its shard for a moment after answering (the
  // slice then queues), so read-only batches repeat until one ran inline.
  std::unordered_map<u64, std::vector<obs::SpanRecord>> spans_by_trace;
  std::vector<u64> read_only_traces;
  std::vector<u64> mixed_traces;
  Xoshiro256 rng(11);
  for (u32 round = 0; round < 40; ++round) {
    const bool mixed = round % 2 == 1;
    batch.clear();
    for (u32 i = 0; i < 16; ++i) {
      const u64 k = 1 + rng.next_below(256);
      const bool put = mixed && i == 0;
      batch.requests.push_back(put ? Request{Op::kPut, k, k} : Request{Op::kGet, k, 0});
    }
    server.execute(batch);
    for (const Response& r : batch.responses()) ASSERT_EQ(r.status, Status::kOk);
    for (const obs::SpanRecord& sp : collector.drain_all()) {
      if (sp.kind == static_cast<u8>(obs::SpanKind::kRequest)) {
        (mixed ? mixed_traces : read_only_traces).push_back(sp.trace_id);
      }
      spans_by_trace[sp.trace_id].push_back(sp);
    }
    if (!mixed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  const auto count = [&](u64 trace, obs::SpanKind kind) {
    u64 n = 0;
    for (const obs::SpanRecord& sp : spans_by_trace[trace]) {
      n += sp.kind == static_cast<u8>(kind);
    }
    return n;
  };
  ASSERT_EQ(read_only_traces.size(), 20u);
  ASSERT_EQ(mixed_traces.size(), 20u);
  u64 inline_batches = 0;
  for (const u64 t : read_only_traces) {
    EXPECT_GE(count(t, obs::SpanKind::kShardVisit), 1u);
    inline_batches += count(t, obs::SpanKind::kRingWait) == 0;
  }
  EXPECT_GT(inline_batches, 0u) << "no read-only batch skipped the ring";
  for (const u64 t : mixed_traces) {
    EXPECT_GE(count(t, obs::SpanKind::kRingWait), 1u) << "a slice with a put must queue";
    EXPECT_GE(count(t, obs::SpanKind::kShardVisit), 1u);
  }
}

TEST(ShardService, TracingOffEmitsNothing) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  (void)collector.drain_all();

  ShardServer server(small_service_options());  // trace_mode defaults to kOff
  Batch batch;
  for (u64 k = 1; k <= 500; ++k) batch.requests.push_back(Request{Op::kPut, k, k});
  server.execute(batch);
  server.stop();
  EXPECT_TRUE(collector.drain_all().empty());
}

}  // namespace
}  // namespace gh::service
