// gh_bench — the repository benchmark program.
//
// Runs the four named workloads (benchmark/README.md says why each
// exists) through the library's public API, checks every answer, and
// prints one JSON line on stdout:
//
//   * --trace 0: per-repetition end-to-end metrics (throughput, exact
//     latency percentiles, flushed lines per write, table bytes per key,
//     set-up time; restart/recovery time on svc-grow-file);
//   * --trace 1: one repetition read for its layer counters, plus the
//     layer ledger — the workload's pinned op stream replayed through
//     hash → core.map → core.concurrent → service (untraced and
//     sample-traced), legs interleaved round by round so host drift hits
//     every leg alike — and the per-layer metrics derived from both.
//
// Progress and per-repetition summaries go to stderr. benchmark/run
// builds this file, takes medians over repetitions and prints the
// summary; run that, not this binary, unless you are debugging it.
//
//   gh_bench --workload <name|all> [--seed 42] [--seconds 10] [--reps 5]
//            [--trace 0|1] [--scale-shift 0] [--data-dir build-bench/data]
//
// Exit status: 0 when every answer was right, 1 when any was wrong (the
// JSON line is still printed), 2 on a usage error (nothing printed).

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/concurrent_map.hpp"
#include "core/group_hash_map.hpp"
#include "hash/cells.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace {

using namespace gh;
using service::Op;
using service::Request;
using service::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload shape. The thread budget is 4 = nproc: 2 shard workers +
// 2 clients, or 4 application threads.

constexpr u32 kBatch = 64;          // requests per service round trip
constexpr u32 kShards = 2;          // service shard workers
constexpr u32 kClients = 2;         // service client threads
constexpr u32 kAppThreads = 4;      // embedded application threads
// ConcurrentGroupHashMap shards. At the default 16, about 4% of gets fell
// back to the shard lock behind a writer and p99 swung 7-10 us with host
// phases; at 64 reads still retry but p99 tracks the write path.
constexpr u32 kEmbeddedShards = 64;
constexpr double kZipfTheta = 0.99;
constexpr u64 kEraseLag = 1024;     // embedded: erase the key inserted W inserts earlier
constexpr u64 kPmFlushNs = 300;     // the paper's emulated NVM write latency

enum class Shape { kServiceTimed, kEmbedded, kServiceGrow };

struct Workload {
  const char* name;
  Shape shape;
  u64 keys;           // preloaded keys (svc-grow-file: keys ingested)
  double read_share;  // share of gets in the measured stream
  u64 flush_ns;       // MapOptions::flush_latency_ns
  u64 ledger_ops;     // requests per ledger round
};

constexpr Workload kWorkloads[] = {
    {"svc-read-hot", Shape::kServiceTimed, u64{1} << 18, 1.0, 0, u64{1} << 19},
    {"svc-update-pm", Shape::kServiceTimed, u64{1} << 18, 0.5, kPmFlushNs, u64{1} << 17},
    {"embedded-rw-large", Shape::kEmbedded, u64{1} << 22, 0.9, kPmFlushNs, u64{1} << 15},
    {"svc-grow-file", Shape::kServiceGrow, u64{1} << 19, 0.0, kPmFlushNs, u64{1} << 17},
};

// The ledger keeps five structures alive at once; capping its keyspace at
// 2M keys (64 MiB of cells each, still twice the L3) bounds its memory.
constexpr u64 kLedgerMaxKeys = u64{1} << 21;

struct Args {
  std::string workload;
  u64 seed = 42;
  double seconds = 10;  // measured seconds per workload, split over reps
  u32 reps = 5;
  bool trace = false;
  u32 scale_shift = 0;  // divide key counts and fixed work by 2^shift
  std::string data_dir = "build-bench/data";
};

// ---------------------------------------------------------------------------
// Keys and values. Keys are a bijection of (key space, index) onto 62 bits,
// so distinct indices never collide; the 20-bit key space is a hash of the
// seed, so any 64-bit seed works. Every value carries a 32-bit check word
// derived from its key, so any get can be verified on its own.

constexpr u64 kKeyMask = (u64{1} << 62) - 1;
constexpr u64 kFreshBase = u64{1} << 36;  // index space of keys not preloaded
constexpr u64 kFreshStride = u64{1} << 28;

u64 scramble62(u64 x) {
  x &= kKeyMask;
  x ^= x >> 29;
  x = (x * 0xbf58476d1ce4e5b9ull) & kKeyMask;
  x ^= x >> 32;
  x = (x * 0x94d049bb133111ebull) & kKeyMask;
  x ^= x >> 29;
  return x;
}

u64 key_of(u64 seed, u64 index) {
  const u64 key_space = SplitMix64(seed).next() >> 44;
  return scramble62((key_space << 40) + index);
}
u64 fresh_key(u64 seed, u64 owner, u64 slot) {
  return key_of(seed, kFreshBase + owner * kFreshStride + slot);
}
u32 check_word(u64 key) { return static_cast<u32>(SplitMix64(key).next() >> 32); }
u64 value_of(u64 key, u64 version) { return (version << 32) | check_word(key); }
bool value_ok(u64 key, u64 value) { return static_cast<u32>(value) == check_word(key); }

u64 presize_cells(u64 keys) {
  u64 cells = 1024;
  while (cells < 2 * keys) cells <<= 1;
  return cells;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
u64 ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Exact latency percentiles: 1 ns buckets below kFineNs and raw samples
// above it, so a percentile comes from the measured values themselves and
// never from a bucket edge.

class LatencyLog {
 public:
  static constexpr u64 kFineNs = u64{1} << 17;

  LatencyLog() : fine_(kFineNs, 0) {}

  void add(u64 ns) {
    if (ns < kFineNs) {
      ++fine_[ns];
    } else {
      coarse_.push_back(ns);
    }
    ++count_;
  }

  void merge(const LatencyLog& o) {
    for (u64 i = 0; i < kFineNs; ++i) fine_[i] += o.fine_[i];
    coarse_.insert(coarse_.end(), o.coarse_.begin(), o.coarse_.end());
    count_ += o.count_;
  }

  /// Percentile in ns, q in (0, 1]; 0 when empty. Where rank q * count
  /// falls among samples of one value, the result is interpolated by rank
  /// between the previous measured value and that one: steady_clock ticks
  /// every 10 ns on a 4-vCPU AMD EPYC VM, so a ~230 ns call's nearest-rank
  /// p50 moved in 4% steps. Raw samples above kFineNs are distinct, so
  /// there it is the nearest rank.
  [[nodiscard]] double percentile(double q) {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    u64 seen = 0;
    u64 prev = 0;
    for (u64 ns = 0; ns < kFineNs; ++ns) {
      if (fine_[ns] == 0) continue;
      if (static_cast<double>(seen + fine_[ns]) >= target) {
        const double lo = static_cast<double>(seen == 0 ? ns : prev);
        const double frac = (target - static_cast<double>(seen)) / fine_[ns];
        return lo + (static_cast<double>(ns) - lo) * frac;
      }
      seen += fine_[ns];
      prev = ns;
    }
    std::sort(coarse_.begin(), coarse_.end());
    const u64 rank = std::max<u64>(seen + 1, static_cast<u64>(std::ceil(target)));
    return static_cast<double>(coarse_[rank - seen - 1]);
  }

 private:
  std::vector<u32> fine_;
  std::vector<u64> coarse_;
  u64 count_ = 0;
};

// ---------------------------------------------------------------------------
// Answer checking. Every wrong answer is counted; the first few are kept
// for the report.

struct Checks {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void add(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.emplace_back(what);
  }

  void absorb(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Checks one executed service batch; returns the number of writes in it.
u64 check_batch(const service::Batch& batch, Checks& checks) {
  const auto responses = batch.responses();
  u64 writes = 0;
  for (usize i = 0; i < batch.requests.size(); ++i) {
    const Request& rq = batch.requests[i];
    const service::Response& rs = responses[i];
    switch (rq.op) {
      case Op::kGet:
        checks.add(rs.status == Status::kOk && value_ok(rq.key, rs.value), "get: missing or wrong value");
        break;
      case Op::kPut:
        ++writes;
        checks.add(rs.status == Status::kOk, "put: not acknowledged");
        break;
      case Op::kErase:
        ++writes;
        checks.add(rs.status == Status::kOk, "erase: missed a live key");
        break;
    }
  }
  return writes;
}

// ---------------------------------------------------------------------------
// CPU placement. On a VM, a request that wakes a thread on another vCPU
// pays a host-dependent price: with service workers and clients spread
// over two vCPUs, svc-read-hot alternated between ~19 and ~38 Mops/s in
// phases of 5-20 s on a 4-vCPU AMD EPYC VM, and with workers on two vCPUs
// and each client on its own, the median of ten 10 s runs ranged 6.0-9.2
// Mops/s (IQR 14% of the median; p50 23%), while on one vCPU it held at
// 17-20 Mops/s. So every service thread — workers, clients and the
// main thread — shares CPU slot 0, and a service workload measures the
// CPU cost of its requests. It cannot see cross-core costs: cache-line
// transfers of the ring, doorbell wake-up latency, or spin-versus-yield
// tuning (spinning longer reads as a loss on one CPU). The embedded
// workload's application thread t owns slot t, since seqlock contention
// needs threads that truly overlap.
// Threads inherit their creator's affinity, so a server started from a
// pinned thread has pinned workers.

class Placement {
 public:
  Placement() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  /// Pin the calling thread to `slot` (slots wrap over the allowed CPUs).
  void pin_self(usize slot) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[slot % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  /// Let the calling thread run on every allowed CPU again.
  void unpin_self() const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus_) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
};

const Placement& placement() {
  static const Placement p;
  return p;
}

/// Pins the calling thread (and the threads it starts) to slot 0 for the
/// guard's lifetime.
struct PinToSlotZero {
  PinToSlotZero() { placement().pin_self(0); }
  ~PinToSlotZero() { placement().unpin_self(); }
  PinToSlotZero(const PinToSlotZero&) = delete;
  PinToSlotZero& operator=(const PinToSlotZero&) = delete;
};

enum class Cpus { kSlotZero, kOnePerThread };

// ---------------------------------------------------------------------------
// Closed-loop threads: n threads are released together, run their body
// until `stop` (timed runs) or until done (fixed work), and the wall time
// runs from release to the last finish.

// Cacheline-aligned so threads never share a line of hot counters.
struct alignas(kCachelineSize) ThreadStats {
  LatencyLog latency;
  u64 ops = 0;
  u64 writes = 0;
  Checks checks;
  Clock::time_point end{};
};

template <class Body>
double run_threads(u32 n, Cpus cpus, double seconds, std::vector<ThreadStats>& stats, Body&& body) {
  stats.clear();
  stats.resize(n);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<u32> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (u32 t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      placement().pin_self(cpus == Cpus::kSlotZero ? 0 : t);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(t, stop, stats[t]);
      } catch (const std::exception& e) {
        stats[t].checks.add(false, "worker threw an exception");
        std::fprintf(stderr, "gh_bench: thread %u: %s\n", t, e.what());
      }
      stats[t].end = Clock::now();
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& th : threads) th.join();
  Clock::time_point last = start;
  for (const ThreadStats& s : stats) last = std::max(last, s.end);
  return seconds_between(start, last);
}

// ---------------------------------------------------------------------------
// Pre-generated inputs. Everything below is built from --seed before any
// timer starts; the measured loops only copy requests in.

struct ServiceStream {               // svc-read-hot, svc-update-pm
  std::vector<u64> keys;             // preloaded set
  std::vector<std::vector<Request>> pools;  // per client, cycled
  std::optional<obs::Snapshot> preload_counters;  // what the preload alone leaves
};

struct EmbeddedStream {              // embedded-rw-large
  static constexpr u64 kGet = 0, kInsert = 1, kErase = 2;
  std::vector<u64> keys;             // preloaded, never written again
  std::vector<std::vector<u64>> ops;    // per thread: kind << 62 | key, cycled
  std::vector<std::vector<u64>> fresh;  // per thread: ring of owned fresh keys
};

struct GrowStream {                  // svc-grow-file
  std::vector<u64> keys;
  std::vector<Request> requests;     // all puts, kBatch per round trip
};

std::vector<u64> make_keys(u64 seed, u64 n) {
  std::vector<u64> keys(n);
  for (u64 i = 0; i < n; ++i) keys[i] = key_of(seed, i);
  return keys;
}

/// Zipf(0.99) get/put stream over `keys` — the rank → key map is the
/// identity, and keys are already scrambled, so hot keys are scattered.
std::vector<Request> zipf_requests(const std::vector<u64>& keys, const trace::ZipfSampler& zipf,
                                   double read_share, u64 n, Xoshiro256& rng) {
  std::vector<Request> out(n);
  for (Request& rq : out) {
    const u64 key = keys[zipf.sample(rng)];
    if (rng.next_double() < read_share) {
      rq = Request{Op::kGet, key, 0};
    } else {
      rq = Request{Op::kPut, key, value_of(key, 1 + (rng.next() & 0xffff))};
    }
  }
  return out;
}

ServiceStream make_service_stream(const Workload& w, const Args& a) {
  ServiceStream st;
  st.keys = make_keys(a.seed, std::max<u64>(w.keys >> a.scale_shift, 4096));
  const trace::ZipfSampler zipf(st.keys.size(), kZipfTheta);
  const u64 pool = std::max<u64>((u64{1} << 18) >> a.scale_shift, kBatch * 64);
  for (u32 c = 0; c < kClients; ++c) {
    Xoshiro256 rng(a.seed * 1000003 + c);
    st.pools.push_back(zipf_requests(st.keys, zipf, w.read_share, pool, rng));
  }
  return st;
}

EmbeddedStream make_embedded_stream(const Workload& w, const Args& a) {
  EmbeddedStream st;
  st.keys = make_keys(a.seed, std::max<u64>(w.keys >> a.scale_shift, 4096));
  const u64 pool = std::max<u64>((u64{1} << 21) >> a.scale_shift, u64{1} << 16);
  for (u32 t = 0; t < kAppThreads; ++t) {
    Xoshiro256 rng(a.seed * 1000003 + 100 + t);
    std::vector<u64> ops(pool);
    std::vector<u64> kinds(pool);
    u64 writes = 0;
    for (u64 i = 0; i < pool; ++i) {
      // Write slots alternate erase, insert: the FIFO of owned keys starts
      // full (kEraseLag warm inserts), so the table size stays fixed.
      kinds[i] = rng.next_double() < w.read_share ? EmbeddedStream::kGet
                 : (writes++ % 2 == 0)            ? EmbeddedStream::kErase
                                                  : EmbeddedStream::kInsert;
    }
    if (writes % 2 == 1) {  // equal inserts and erases, so the pool cycles
      for (u64 i = pool; i-- > 0;) {
        if (kinds[i] != EmbeddedStream::kGet) {
          kinds[i] = EmbeddedStream::kGet;
          break;
        }
      }
    }
    const u64 ring = std::max<u64>(writes / 2, kEraseLag);
    std::vector<u64> fresh(ring);
    for (u64 s = 0; s < ring; ++s) fresh[s] = fresh_key(a.seed, t, s);
    // The k-th insert takes slot (W + k) mod F and the k-th erase slot
    // k mod F: the erased key is always the one inserted W inserts
    // earlier, and one pass of the pool leaves the ring where it began.
    u64 inserts = 0;
    u64 erases = 0;
    for (u64 i = 0; i < pool; ++i) {
      u64 key = 0;
      switch (kinds[i]) {
        case EmbeddedStream::kGet: key = st.keys[rng.next_below(st.keys.size())]; break;
        case EmbeddedStream::kInsert: key = fresh[(kEraseLag + inserts++) % ring]; break;
        default: key = fresh[erases++ % ring]; break;
      }
      ops[i] = (kinds[i] << 62) | key;
    }
    st.ops.push_back(std::move(ops));
    st.fresh.push_back(std::move(fresh));
  }
  return st;
}

GrowStream make_grow_stream(const Workload& w, const Args& a) {
  GrowStream st;
  st.keys = make_keys(a.seed, std::max<u64>(w.keys >> a.scale_shift, kBatch * 64));
  st.requests.reserve(st.keys.size());
  for (const u64 key : st.keys) st.requests.push_back(Request{Op::kPut, key, value_of(key, 1)});
  return st;
}

// ---------------------------------------------------------------------------
// One repetition.

using Metrics = std::vector<std::pair<std::string, double>>;

struct RepOutcome {
  Metrics e2e;
  Checks checks;
  obs::Snapshot counters;    // layer counters (service: preload + measured phase)
  u64 reads = 0;             // gets the counters cover
  u64 writes = 0;            // puts/inserts/erases the counters cover
  double cpu_seconds = 0;    // CPU time the workload had while the counters ran
  u64 restart_groups_verified = 0;
  u64 recovery_cells_scanned = 0;
  /// Seqlock contention of the measured phase — only where the workload
  /// itself runs on the concurrent wrapper.
  std::optional<obs::ContentionSnapshot> contention;
};

double bytes_per_key(const obs::Snapshot& s) {
  return ratio(s.capacity * sizeof(hash::Cell16), s.size);
}

/// Throughput and exact p50/p99 of the threads' measured phase.
void add_timing_metrics(Metrics& m, const std::vector<ThreadStats>& stats, u64 ops, double wall_s) {
  LatencyLog all;
  for (const ThreadStats& s : stats) all.merge(s.latency);
  m.emplace_back("throughput_mops", static_cast<double>(ops) / wall_s / 1e6);
  m.emplace_back("p50_us", all.percentile(0.50) / 1e3);
  m.emplace_back("p99_us", all.percentile(0.99) / 1e3);
}

/// Preload `keys` through the service in batched puts (value version 0).
void preload_service(service::ShardServer& server, const std::vector<u64>& keys, Checks& checks) {
  service::Batch batch;
  for (usize i = 0; i < keys.size(); i += kBatch) {
    batch.clear();
    for (usize j = i; j < std::min<usize>(keys.size(), i + kBatch); ++j) {
      batch.requests.push_back(Request{Op::kPut, keys[j], value_of(keys[j], 0)});
    }
    server.execute(batch);
    check_batch(batch, checks);
  }
}

obs::PersistSnapshot minus(obs::PersistSnapshot a, const obs::PersistSnapshot& b) {
  a.stores -= b.stores;
  a.bytes_written -= b.bytes_written;
  a.atomic_stores -= b.atomic_stores;
  a.persist_calls -= b.persist_calls;
  a.lines_flushed -= b.lines_flushed;
  a.fences -= b.fences;
  a.delay_ns -= b.delay_ns;
  return a;
}

obs::TableOpSnapshot minus(obs::TableOpSnapshot a, const obs::TableOpSnapshot& b) {
  a.inserts -= b.inserts;
  a.insert_failures -= b.insert_failures;
  a.queries -= b.queries;
  a.query_hits -= b.query_hits;
  a.erases -= b.erases;
  a.erase_hits -= b.erase_hits;
  a.probes -= b.probes;
  a.level2_probes -= b.level2_probes;
  a.tag_probes -= b.tag_probes;
  a.tag_skips -= b.tag_skips;
  a.tag_false_positives -= b.tag_false_positives;
  a.batch_ops -= b.batch_ops;
  a.batch_keys -= b.batch_keys;
  a.prefetches_issued -= b.prefetches_issued;
  return a;
}

obs::PhaseSnapshot minus(obs::PhaseSnapshot a, const obs::PhaseSnapshot& b) {
  for (usize k = 0; k < a.rows.size(); ++k) {
    a.rows[k].samples -= b.rows[k].samples;
    a.rows[k].op_ns -= b.rows[k].op_ns;
    for (usize p = 0; p < a.rows[k].phase_ns.size(); ++p) {
      a.rows[k].phase_ns[p] -= b.rows[k].phase_ns[p];
    }
  }
  return a;
}

/// The layer counters of the phase between two snapshots of one structure.
obs::Snapshot counters_between(const obs::Snapshot& before, obs::Snapshot after) {
  after.persist = minus(after.persist, before.persist);
  after.table = minus(after.table, before.table);
  after.phases = minus(after.phases, before.phases);
  after.contention.read_retries -= before.contention.read_retries;
  after.contention.read_fallbacks -= before.contention.read_fallbacks;
  after.contention.writer_waits -= before.contention.writer_waits;
  after.lifecycle.expansions -= before.lifecycle.expansions;
  return after;
}

service::ServiceOptions service_options(const Workload& w) {
  service::ServiceOptions so;
  so.shards = kShards;
  so.map_options.flush_latency_ns = w.flush_ns;
  return so;
}

RepOutcome run_service_timed(const Workload& w, ServiceStream& st, double seconds) {
  RepOutcome out;
  const service::ServiceOptions so = service_options(w);
  if (!st.preload_counters) {
    // A server's counters can be read only once it stops, so the
    // preload's share is read once from a server that only preloads (the
    // preload is deterministic) and subtracted from every repetition.
    const auto server = std::make_unique<service::ShardServer>(so);
    preload_service(*server, st.keys, out.checks);
    server->stop();
    st.preload_counters = server->snapshot();
  }
  const Clock::time_point t0 = Clock::now();
  const auto server = std::make_unique<service::ShardServer>(so);
  preload_service(*server, st.keys, out.checks);
  const double setup_s = seconds_between(t0, Clock::now());

  std::vector<ThreadStats> stats;
  const double wall = run_threads(kClients, Cpus::kSlotZero, seconds, stats, [&](u32 c, const std::atomic<bool>& stop,
                                                                 ThreadStats& ts) {
    const std::vector<Request>& pool = st.pools[c];
    service::Batch batch;
    batch.requests.resize(kBatch);
    usize pos = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::copy_n(pool.begin() + static_cast<std::ptrdiff_t>(pos), kBatch, batch.requests.begin());
      const Clock::time_point a = Clock::now();
      server->execute(batch);
      ts.latency.add(ns_between(a, Clock::now()));
      ts.writes += check_batch(batch, ts.checks);
      ts.ops += kBatch;
      pos += kBatch;
      if (pos == pool.size()) pos = 0;
    }
  });
  server->stop();
  const obs::Snapshot total = server->snapshot();
  out.counters = counters_between(*st.preload_counters, total);
  // Phase sums are timings, not counts: another server's cannot be
  // subtracted, so they cover the preload too.
  out.counters.phases = total.phases;

  u64 ops = 0;
  u64 writes = 0;
  for (const ThreadStats& s : stats) {
    ops += s.ops;
    writes += s.writes;
    out.checks.absorb(s.checks);
  }
  out.writes = writes;
  out.reads = ops - writes;
  out.cpu_seconds = wall;  // every service thread shares one CPU
  // A read-only stream writes only while preloading, so it reports the
  // preload's flushes per write.
  const double lines_per_write =
      writes == 0 ? ratio(st.preload_counters->persist.lines_flushed, st.keys.size())
                  : ratio(out.counters.persist.lines_flushed, writes);
  add_timing_metrics(out.e2e, stats, ops, wall);
  out.e2e.emplace_back("pm_lines_per_write", lines_per_write);
  out.e2e.emplace_back("pm_bytes_per_key", bytes_per_key(out.counters));
  out.e2e.emplace_back("setup_s", setup_s);
  return out;
}

RepOutcome run_embedded(const Workload& w, const EmbeddedStream& st, double seconds) {
  RepOutcome out;
  MapOptions mo;
  mo.flush_latency_ns = w.flush_ns;
  mo.initial_cells = presize_cells(st.keys.size());
  const Clock::time_point t0 = Clock::now();
  ConcurrentGroupHashMap map(kEmbeddedShards, mo);
  std::vector<ThreadStats> setup;
  run_threads(kAppThreads, Cpus::kOnePerThread, 0, setup, [&](u32 t, const std::atomic<bool>&, ThreadStats&) {
    const usize n = st.keys.size();
    const usize begin = n * t / kAppThreads;
    const usize end = n * (t + 1) / kAppThreads;
    std::vector<u64> vals;
    for (usize i = begin; i < end; i += 4096) {
      const std::span<const u64> keys(st.keys.data() + i, std::min<usize>(end, i + 4096) - i);
      vals.resize(keys.size());
      for (usize j = 0; j < keys.size(); ++j) vals[j] = value_of(keys[j], 0);
      map.put_batch(keys, vals);
    }
    for (u64 s = 0; s < kEraseLag; ++s) map.put(st.fresh[t][s], value_of(st.fresh[t][s], 1));
  });
  const double setup_s = seconds_between(t0, Clock::now());

  const obs::Snapshot before = map.snapshot();
  std::vector<u64> inserts(kAppThreads, 0);
  std::vector<u64> erases(kAppThreads, 0);
  std::vector<ThreadStats> stats;
  const double wall = run_threads(kAppThreads, Cpus::kOnePerThread, seconds, stats, [&](u32 t, const std::atomic<bool>& stop,
                                                                    ThreadStats& ts) {
    const std::vector<u64>& ops = st.ops[t];
    usize pos = 0;
    u64 ins = 0;
    u64 ers = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const u64 op = ops[pos];
      const u64 key = op & kKeyMask;
      const Clock::time_point a = Clock::now();
      switch (op >> 62) {
        case EmbeddedStream::kGet: {
          const std::optional<u64> v = map.get(key);
          ts.latency.add(ns_between(a, Clock::now()));
          ts.checks.add(v && value_ok(key, *v), "get: missing or wrong value");
          break;
        }
        case EmbeddedStream::kInsert:
          map.put(key, value_of(key, 1));
          ts.latency.add(ns_between(a, Clock::now()));
          ++ins;
          ++ts.writes;
          break;
        default: {
          const bool hit = map.erase(key);
          ts.latency.add(ns_between(a, Clock::now()));
          ts.checks.add(hit, "erase: missed a live key");
          ++ers;
          ++ts.writes;
          break;
        }
      }
      ++ts.ops;
      if (++pos == ops.size()) pos = 0;
    }
    inserts[t] = ins;
    erases[t] = ers;
  });
  const obs::Snapshot after = map.snapshot();

  // Every owned key still in the FIFO must read back.
  for (u32 t = 0; t < kAppThreads; ++t) {
    const std::vector<u64>& ring = st.fresh[t];
    for (u64 k = erases[t]; k < kEraseLag + inserts[t]; ++k) {
      const u64 key = ring[k % ring.size()];
      const std::optional<u64> v = map.get(key);
      out.checks.add(v && value_ok(key, *v), "fresh key lost");
    }
  }

  u64 ops = 0;
  u64 writes = 0;
  for (const ThreadStats& s : stats) {
    ops += s.ops;
    writes += s.writes;
    out.checks.absorb(s.checks);
  }
  out.counters = counters_between(before, after);
  out.contention = out.counters.contention;
  out.writes = writes;
  out.reads = ops - writes;
  out.cpu_seconds = kAppThreads * wall;
  add_timing_metrics(out.e2e, stats, ops, wall);
  out.e2e.emplace_back("pm_lines_per_write", ratio(out.counters.persist.lines_flushed, writes));
  out.e2e.emplace_back("pm_bytes_per_key", bytes_per_key(after));
  out.e2e.emplace_back("setup_s", setup_s);
  return out;
}

std::string shard_path(const std::string& dir, u32 s) {
  return dir + "/shard" + std::to_string(s) + ".gh";
}

/// Reads every ingested key back from the reopened shard maps.
void read_back(std::vector<GroupHashMap>& maps, const std::vector<std::vector<u64>>& by_shard,
               Checks& checks, const char* what) {
  std::vector<std::optional<u64>> out;
  for (u32 s = 0; s < maps.size(); ++s) {
    const std::vector<u64>& keys = by_shard[s];
    for (usize i = 0; i < keys.size(); i += 1024) {
      const std::span<const u64> chunk(keys.data() + i, std::min<usize>(keys.size(), i + 1024) - i);
      out.assign(chunk.size(), std::nullopt);
      maps[s].get_batch(chunk, out);
      for (usize j = 0; j < chunk.size(); ++j) {
        checks.add(out[j] && value_ok(chunk[j], *out[j]), what);
      }
    }
  }
}

/// Ingests the whole stream through the server from kClients clients;
/// returns the wall time.
double ingest(service::ShardServer& server, const GrowStream& st, std::vector<ThreadStats>& stats) {
  const usize batches = st.requests.size() / kBatch;
  return run_threads(kClients, Cpus::kSlotZero, 0, stats,
                     [&](u32 c, const std::atomic<bool>&, ThreadStats& ts) {
    service::Batch batch;
    batch.requests.resize(kBatch);
    for (usize b = c; b < batches; b += kClients) {
      std::copy_n(st.requests.begin() + static_cast<std::ptrdiff_t>(b * kBatch), kBatch,
                  batch.requests.begin());
      const Clock::time_point a = Clock::now();
      server.execute(batch);
      ts.latency.add(ns_between(a, Clock::now()));
      ts.writes += check_batch(batch, ts.checks);
      ts.ops += kBatch;
    }
  });
}

/// The timed ingest runs in memory. Shard files must stay inside the
/// checkout, so they live on its disk rather than on tmpfs, and there the
/// msync of every file publish made the ingest follow the host's I/O
/// phases: one seed swung between 0.10 and 0.27 Mops/s, and ten seeds
/// gave a throughput IQR of 7.3% of the median, against 1-1.5% in memory.
/// The file-backed half repeats the ingest untimed, so expansions still
/// publish files, and the read-backs check what restart and recovery find.
RepOutcome run_grow(const GrowStream& st, const std::string& data_dir) {
  RepOutcome out;
  service::ServiceOptions so;
  so.shards = kShards;
  so.map_options.initial_cells = 1024;
  so.map_options.flush_latency_ns = kPmFlushNs;

  std::vector<ThreadStats> stats;
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<service::ShardServer>(so);
  const double setup_s = seconds_between(t0, Clock::now());
  const double wall = ingest(*server, st, stats);
  server->stop();
  out.counters = server->snapshot();
  server.reset();
  u64 ops = 0;
  for (const ThreadStats& s : stats) {
    ops += s.ops;
    out.checks.absorb(s.checks);
  }

  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  so.data_dir = data_dir;
  {
    std::vector<ThreadStats> file_stats;
    service::ShardServer file_server(so);
    ingest(file_server, st, file_stats);
    for (const ThreadStats& s : file_stats) out.checks.absorb(s.checks);
  }  // stops the server and closes every shard map cleanly
  std::vector<std::vector<u64>> by_shard(kShards);
  for (const u64 key : st.keys) by_shard[service::ShardServer::shard_of(key, kShards)].push_back(key);

  std::vector<GroupHashMap> maps;
  Clock::time_point t = Clock::now();
  for (u32 s = 0; s < kShards; ++s) maps.push_back(GroupHashMap::open(shard_path(data_dir, s), so.map_options));
  const double restart_s = seconds_between(t, Clock::now());
  for (const GroupHashMap& m : maps) {
    out.checks.add(!m.recovered_on_open(), "clean reopen ran recovery");
    out.restart_groups_verified += m.open_scrub_report().groups_checked;
  }
  read_back(maps, by_shard, out.checks, "key lost across restart");

  for (GroupHashMap& m : maps) m.abandon();  // a crash: no clean mark, no sync
  maps.clear();
  t = Clock::now();
  for (u32 s = 0; s < kShards; ++s) maps.push_back(GroupHashMap::open(shard_path(data_dir, s), so.map_options));
  const double recovery_s = seconds_between(t, Clock::now());
  for (const GroupHashMap& m : maps) {
    out.checks.add(m.recovered_on_open(), "dirty reopen skipped recovery");
    out.recovery_cells_scanned += m.open_recovery_report().cells_scanned;
  }
  read_back(maps, by_shard, out.checks, "key lost across recovery");
  maps.clear();
  std::filesystem::remove_all(data_dir);

  out.writes = ops;
  out.cpu_seconds = wall;
  add_timing_metrics(out.e2e, stats, ops, wall);
  out.e2e.emplace_back("pm_lines_per_write", ratio(out.counters.persist.lines_flushed, ops));
  out.e2e.emplace_back("pm_bytes_per_key", bytes_per_key(out.counters));
  out.e2e.emplace_back("setup_s", setup_s);
  out.e2e.emplace_back("restart_s", restart_s);
  out.e2e.emplace_back("recovery_s", recovery_s);
  return out;
}

// ---------------------------------------------------------------------------
// Layer ledger: the same pinned op stream through each layer's public
// calls, timed from outside. A leg's tax is its time minus the leg below.

struct LedgerStream {
  bool scalar = false;          // embedded: one call per request
  bool fresh_each_round = false;  // svc-grow-file: rounds ingest into empty structures
  u64 keys = 0;                 // structures are sized for this many keys
  std::vector<u64> preload;
  std::vector<u64> warm;        // owned keys inserted after the preload
  std::vector<Request> ops;     // round r replays ops[r * per_round, (r + 1) * per_round)
  usize per_round = 0;
};

LedgerStream make_ledger_stream(const Workload& w, const Args& a) {
  LedgerStream ls;
  const u64 per_round = std::max<u64>(w.ledger_ops >> a.scale_shift, kBatch * 16);
  ls.per_round = per_round;
  Xoshiro256 rng(a.seed * 1000003 + 999);
  switch (w.shape) {
    case Shape::kServiceTimed: {
      ls.preload = make_keys(a.seed, std::max<u64>(w.keys >> a.scale_shift, 4096));
      ls.keys = ls.preload.size();
      const trace::ZipfSampler zipf(ls.preload.size(), kZipfTheta);
      ls.ops = zipf_requests(ls.preload, zipf, w.read_share, per_round * a.reps, rng);
      break;
    }
    case Shape::kEmbedded: {
      ls.scalar = true;
      ls.preload = make_keys(a.seed, std::min(std::max<u64>(w.keys >> a.scale_shift, 4096),
                                              kLedgerMaxKeys));
      ls.keys = ls.preload.size();
      constexpr u64 kOwner = kAppThreads;  // an owner id no workload thread uses
      for (u64 s = 0; s < kEraseLag; ++s) ls.warm.push_back(fresh_key(a.seed, kOwner, s));
      u64 writes = 0;
      u64 inserts = 0;
      u64 erases = 0;
      ls.ops.resize(per_round * a.reps);
      for (Request& rq : ls.ops) {
        if (rng.next_double() < w.read_share) {
          rq = Request{Op::kGet, ls.preload[rng.next_below(ls.preload.size())], 0};
        } else if (writes++ % 2 == 0) {
          rq = Request{Op::kErase, fresh_key(a.seed, kOwner, erases++), 0};
        } else {
          const u64 key = fresh_key(a.seed, kOwner, kEraseLag + inserts++);
          rq = Request{Op::kPut, key, value_of(key, 1)};
        }
      }
      break;
    }
    case Shape::kServiceGrow: {
      ls.fresh_each_round = true;
      ls.keys = per_round;
      for (const u64 key : make_keys(a.seed, per_round)) {
        ls.ops.push_back(Request{Op::kPut, key, value_of(key, 1)});
      }
      break;
    }
  }
  return ls;
}

struct LegTally {
  Checks checks;
  u64 max_write_ns = 0;  // slowest single call that carried a write
};

/// Per-call scratch shared by the in-process legs (hash, core.map,
/// core.concurrent), so each pays the same splitting cost.
struct CallScratch {
  std::vector<u64> get_keys;
  std::vector<std::optional<u64>> get_out;
  std::vector<u64> put_keys;
  std::vector<u64> put_vals;
};

/// One call of the stream against an in-process layer. `Api` supplies
/// get_batch/put_batch (returns false if a key was not placed) and the
/// scalar get/put/erase.
template <class Api>
void replay_call(Api& api, std::span<const Request> reqs, CallScratch& s, LegTally& tally) {
  if (reqs.size() == 1) {
    const Request& rq = reqs[0];
    if (rq.op == Op::kGet) {
      const std::optional<u64> v = api.get(rq.key);
      tally.checks.add(v && value_ok(rq.key, *v), "get: missing or wrong value");
      return;
    }
    const Clock::time_point a = Clock::now();
    const bool ok = rq.op == Op::kPut ? api.put(rq.key, rq.value) : api.erase(rq.key);
    tally.max_write_ns = std::max(tally.max_write_ns, ns_between(a, Clock::now()));
    tally.checks.add(ok, rq.op == Op::kPut ? "put: not placed" : "erase: missed a live key");
    return;
  }
  s.get_keys.clear();
  s.put_keys.clear();
  s.put_vals.clear();
  for (const Request& rq : reqs) {
    if (rq.op == Op::kGet) {
      s.get_keys.push_back(rq.key);
    } else {
      s.put_keys.push_back(rq.key);
      s.put_vals.push_back(rq.value);
    }
  }
  if (!s.get_keys.empty()) {
    s.get_out.assign(s.get_keys.size(), std::nullopt);
    api.get_batch(s.get_keys, s.get_out);
    for (usize i = 0; i < s.get_keys.size(); ++i) {
      tally.checks.add(s.get_out[i] && value_ok(s.get_keys[i], *s.get_out[i]),
                       "get: missing or wrong value");
    }
  }
  if (!s.put_keys.empty()) {
    const Clock::time_point a = Clock::now();
    const bool ok = api.put_batch(s.put_keys, s.put_vals);
    tally.max_write_ns = std::max(tally.max_write_ns, ns_between(a, Clock::now()));
    for (usize i = 0; i < s.put_keys.size(); ++i) tally.checks.add(ok, "put: not placed");
  }
}

/// hash: the raw GroupHashTable under a pre-sized map (never expands).
struct HashApi {
  GroupHashMap::Table& t;
  void get_batch(std::span<const u64> k, std::span<std::optional<u64>> o) { t.find_batch(k, o); }
  bool put_batch(std::span<const u64> k, std::span<const u64> v) { return t.upsert_batch(k, v) == k.size(); }
  std::optional<u64> get(u64 k) { return t.find(k); }
  bool put(u64 k, u64 v) { return t.insert(k, v); }  // ledger scalar puts are fresh keys
  bool erase(u64 k) { return t.erase(k); }
};

struct MapApi {
  GroupHashMap& m;
  void get_batch(std::span<const u64> k, std::span<std::optional<u64>> o) { m.get_batch(k, o); }
  bool put_batch(std::span<const u64> k, std::span<const u64> v) {
    m.put_batch(k, v);
    return true;
  }
  std::optional<u64> get(u64 k) { return m.get(k); }
  bool put(u64 k, u64 v) {
    m.put(k, v);
    return true;
  }
  bool erase(u64 k) { return m.erase(k); }
};

struct ConcurrentApi {
  ConcurrentGroupHashMap& m;
  void get_batch(std::span<const u64> k, std::span<std::optional<u64>> o) { m.get_batch(k, o); }
  bool put_batch(std::span<const u64> k, std::span<const u64> v) {
    m.put_batch(k, v);
    return true;
  }
  std::optional<u64> get(u64 k) { return m.get(k); }
  bool put(u64 k, u64 v) {
    m.put(k, v);
    return true;
  }
  bool erase(u64 k) { return m.erase(k); }
};

enum Leg : usize { kHashLeg, kMapLeg, kConcurrentLeg, kServiceLeg, kTracedLeg, kLegs };
constexpr const char* kLegNames[kLegs] = {"hash", "core.map", "core.concurrent", "service",
                                          "service.traced"};

/// The five structures of one ledger, built and preloaded alike.
class LedgerLegs {
 public:
  LedgerLegs(const Workload& w, const LedgerStream& ls) : w_(w), ls_(ls) {}

  void build(std::array<LegTally, kLegs>& tallies) {
    const bool grow = w_.shape == Shape::kServiceGrow;
    MapOptions presized;
    presized.flush_latency_ns = w_.flush_ns;
    presized.initial_cells = presize_cells(ls_.keys);
    MapOptions grown = presized;
    if (grow) grown.initial_cells = 1024;  // the B, C and service legs grow like the workload
    // Under the concurrent layer the in-process legs see their workload's
    // own shard count: 16 for embedded, the service's 2 otherwise.
    const u32 cshards = w_.shape == Shape::kEmbedded ? kEmbeddedShards : kShards;
    hash_map_ = std::make_unique<GroupHashMap>(GroupHashMap::create_in_memory(presized));
    map_ = std::make_unique<GroupHashMap>(GroupHashMap::create_in_memory(grown));
    conc_ = std::make_unique<ConcurrentGroupHashMap>(cshards, grown);
    for (const Leg leg : {kServiceLeg, kTracedLeg}) {
      service::ServiceOptions so;
      so.shards = kShards;
      so.map_options = grown;
      so.map_options.initial_cells = std::max<u64>(grown.initial_cells / kShards, 1024);
      if (leg == kTracedLeg) so.trace_mode = obs::TraceMode::kSampled;
      servers_[leg == kServiceLeg ? 0 : 1] = std::make_unique<service::ShardServer>(so);
    }
    // Preload and warm inserts go through each leg's own calls (the
    // write stalls count toward map.max_put_stall_ms; no timing here).
    std::vector<Request> setup;
    for (const u64 key : ls_.preload) setup.push_back(Request{Op::kPut, key, value_of(key, 0)});
    for (const u64 key : ls_.warm) setup.push_back(Request{Op::kPut, key, value_of(key, 1)});
    for (usize leg = 0; leg < kLegs; ++leg) {
      for (usize i = 0; i < setup.size(); i += kBatch) {
        const usize n = std::min<usize>(kBatch, setup.size() - i);
        call(static_cast<Leg>(leg), std::span<const Request>(setup.data() + i, n), tallies[leg]);
      }
    }
  }

  void call(Leg leg, std::span<const Request> reqs, LegTally& tally) {
    switch (leg) {
      case kHashLeg: {
        HashApi api{hash_map_->raw_table()};
        replay_call(api, reqs, scratch_, tally);
        break;
      }
      case kMapLeg: {
        MapApi api{*map_};
        replay_call(api, reqs, scratch_, tally);
        break;
      }
      case kConcurrentLeg: {
        ConcurrentApi api{*conc_};
        replay_call(api, reqs, scratch_, tally);
        break;
      }
      default: {
        service::ShardServer& server = *servers_[leg == kServiceLeg ? 0 : 1];
        batch_.requests.assign(reqs.begin(), reqs.end());
        const bool writes = std::any_of(reqs.begin(), reqs.end(),
                                        [](const Request& rq) { return rq.op != Op::kGet; });
        const Clock::time_point a = Clock::now();
        server.execute(batch_);
        if (writes) tally.max_write_ns = std::max(tally.max_write_ns, ns_between(a, Clock::now()));
        check_batch(batch_, tally.checks);
        break;
      }
    }
  }

  [[nodiscard]] obs::ContentionSnapshot contention() { return conc_->snapshot().contention; }

 private:
  const Workload& w_;
  const LedgerStream& ls_;
  std::unique_ptr<GroupHashMap> hash_map_;
  std::unique_ptr<GroupHashMap> map_;
  std::unique_ptr<ConcurrentGroupHashMap> conc_;
  std::array<std::unique_ptr<service::ShardServer>, 2> servers_;
  CallScratch scratch_;
  service::Batch batch_;
};

struct SpanSelfTimes {
  double ring_wait_us = 0;
  double visit_us = 0;
  double wake_us = 0;
  u64 requests = 0;
};

/// Per traced request: summed durations of its ring_wait spans, summed
/// self time of its shard_visit spans (duration minus direct children),
/// and its wake span — medians over requests.
SpanSelfTimes span_self_times(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<u32, u64> child_ticks;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id != 0) child_ticks[s.parent_id] += s.t_end - s.t_start;
  }
  struct Acc {
    bool request = false;
    u64 ring = 0, visit = 0, wake = 0;
  };
  std::unordered_map<u64, Acc> per_trace;
  for (const obs::SpanRecord& s : spans) {
    const u64 dur = s.t_end - s.t_start;
    Acc& acc = per_trace[s.trace_id];
    switch (static_cast<obs::SpanKind>(s.kind)) {
      case obs::SpanKind::kRequest: acc.request = true; break;
      case obs::SpanKind::kRingWait: acc.ring += dur; break;
      case obs::SpanKind::kShardVisit: {
        const auto it = child_ticks.find(s.span_id);
        acc.visit += dur - std::min(dur, it == child_ticks.end() ? 0 : it->second);
        break;
      }
      case obs::SpanKind::kWake: acc.wake += dur; break;
      default: break;
    }
  }
  const double tpn = obs::ticks_per_ns() > 0 ? obs::ticks_per_ns() : 1.0;
  std::vector<double> ring, visit, wake;
  for (const auto& [id, acc] : per_trace) {
    if (!acc.request) continue;
    ring.push_back(static_cast<double>(acc.ring) / tpn / 1e3);
    visit.push_back(static_cast<double>(acc.visit) / tpn / 1e3);
    wake.push_back(static_cast<double>(acc.wake) / tpn / 1e3);
  }
  return {median(ring), median(visit), median(wake), ring.size()};
}

struct LedgerResult {
  std::array<std::vector<double>, kLegs> ns_per_op;  // one per round
  std::array<LegTally, kLegs> tallies;
  obs::ContentionSnapshot contention;  // core.concurrent leg
  SpanSelfTimes spans;
  u64 spans_dropped = 0;
};

/// Every leg runs on CPU slot 0 — service workers included — so a leg's
/// time is the CPU work of its calls, handoffs and context switches, with
/// no cross-CPU wake-up in it.
LedgerResult run_ledger(const Workload& w, const LedgerStream& ls, u32 rounds) {
  const PinToSlotZero pin;
  LedgerResult r;
  obs::SpanCollector& collector = obs::SpanCollector::global();
  const u64 dropped_before = collector.dropped();
  collector.drain_all();
  std::vector<obs::SpanRecord> spans;
  std::unique_ptr<LedgerLegs> legs;
  const usize call_size = ls.scalar ? 1 : kBatch;
  for (u32 round = 0; round < rounds; ++round) {
    if (!legs || ls.fresh_each_round) {
      legs.reset();  // tear the previous round's structures down first
      legs = std::make_unique<LedgerLegs>(w, ls);
      legs->build(r.tallies);
    }
    const usize begin = ls.fresh_each_round ? 0 : round * ls.per_round;
    const std::span<const Request> ops(ls.ops.data() + begin, ls.per_round);
    // The starting leg rotates each round, so no leg always runs right
    // after another leg evicted its structure from the cache.
    for (usize k = 0; k < kLegs; ++k) {
      const usize leg = (round + k) % kLegs;
      const Clock::time_point a = Clock::now();
      for (usize i = 0; i < ops.size(); i += call_size) {
        legs->call(static_cast<Leg>(leg), ops.subspan(i, std::min(call_size, ops.size() - i)),
                   r.tallies[leg]);
      }
      r.ns_per_op[leg].push_back(static_cast<double>(ns_between(a, Clock::now())) /
                                 static_cast<double>(ops.size()));
      if (leg == kTracedLeg) {
        std::vector<obs::SpanRecord> drained = collector.drain_all();
        spans.insert(spans.end(), drained.begin(), drained.end());
      }
    }
    if (round + 1 == rounds || ls.fresh_each_round) {
      const obs::ContentionSnapshot c = legs->contention();
      r.contention += c;
    }
  }
  legs.reset();
  r.spans_dropped = collector.dropped() - dropped_before;
  r.spans = span_self_times(spans);
  return r;
}

/// Median over rounds of (upper leg − lower leg): the layer's tax, paired
/// within each round so host drift cancels.
double paired_tax(const LedgerResult& r, Leg upper, Leg lower) {
  std::vector<double> d;
  for (usize i = 0; i < r.ns_per_op[upper].size(); ++i) {
    d.push_back(r.ns_per_op[upper][i] - r.ns_per_op[lower][i]);
  }
  return median(d);
}

/// Share of the insert row's map-side time (ring wait excluded) spent in
/// `phase`.
double insert_share(const obs::PhaseSnapshot& phases, obs::Phase phase) {
  const obs::PhaseSnapshot::Row& row = phases.of(obs::OpKind::kInsert);
  const u64 ring_wait = row.phase_ns[static_cast<usize>(obs::Phase::kRingWait)];
  return ratio(row.phase_ns[static_cast<usize>(phase)], row.op_ns - std::min(row.op_ns, ring_wait));
}

Metrics per_layer_metrics(const RepOutcome& rep, const LedgerResult& led) {
  const obs::Snapshot& s = rep.counters;
  const obs::TableOpSnapshot& t = s.table;
  const obs::PersistSnapshot& p = s.persist;
  u64 ring_wait_ns = 0;
  u64 attributed_ns = 0;
  for (const obs::PhaseSnapshot::Row& row : s.phases.rows) {
    ring_wait_ns += row.phase_ns[static_cast<usize>(obs::Phase::kRingWait)];
    attributed_ns += row.op_ns;
  }
  std::vector<double> overhead;
  for (usize i = 0; i < led.ns_per_op[kServiceLeg].size(); ++i) {
    overhead.push_back(100.0 * (led.ns_per_op[kTracedLeg][i] - led.ns_per_op[kServiceLeg][i]) /
                       led.ns_per_op[kServiceLeg][i]);
  }
  // Contention comes from the workload's own run where it uses the
  // concurrent wrapper, else from the 1-thread core.concurrent leg.
  const obs::ContentionSnapshot c = rep.contention.value_or(led.contention);
  const u64 ops = t.queries + t.inserts + t.erases;
  Metrics m;
  m.emplace_back("service.ns_per_op", median(led.ns_per_op[kServiceLeg]));
  m.emplace_back("service.handoff_ns_per_op", paired_tax(led, kServiceLeg, kMapLeg));
  m.emplace_back("service.keys_per_map_call", t.batch_ops == 0 ? 1.0 : ratio(t.batch_keys, t.batch_ops));
  m.emplace_back("service.ring_wait_us", led.spans.ring_wait_us);
  m.emplace_back("service.visit_us", led.spans.visit_us);
  m.emplace_back("service.wake_us", led.spans.wake_us);
  m.emplace_back("service.ring_wait_share", ratio(ring_wait_ns, attributed_ns));
  m.emplace_back("map.ns_per_op", median(led.ns_per_op[kMapLeg]));
  m.emplace_back("map.tax_ns_per_op", paired_tax(led, kMapLeg, kHashLeg));
  m.emplace_back("map.expansions", static_cast<double>(s.lifecycle.expansions));
  m.emplace_back("map.max_put_stall_ms", static_cast<double>(led.tallies[kMapLeg].max_write_ns) / 1e6);
  m.emplace_back("map.restart_groups_verified", static_cast<double>(rep.restart_groups_verified));
  m.emplace_back("map.recovery_cells_scanned", static_cast<double>(rep.recovery_cells_scanned));
  m.emplace_back("concurrent.ns_per_op", median(led.ns_per_op[kConcurrentLeg]));
  m.emplace_back("concurrent.tax_ns_per_op", paired_tax(led, kConcurrentLeg, kMapLeg));
  m.emplace_back("concurrent.read_retries_per_get", ratio(c.read_retries, rep.reads));
  m.emplace_back("concurrent.read_fallbacks_per_get", ratio(c.read_fallbacks, rep.reads));
  m.emplace_back("concurrent.writer_waits_per_write", ratio(c.writer_waits, rep.writes));
  m.emplace_back("hash.ns_per_op", median(led.ns_per_op[kHashLeg]));
  m.emplace_back("hash.key_compares_per_get", ratio(t.tag_probes, t.queries));
  m.emplace_back("hash.tag_false_positive_rate", ratio(t.tag_false_positives, t.tag_probes));
  m.emplace_back("hash.level2_probes_per_op", ratio(t.level2_probes, ops));
  m.emplace_back("hash.prefetches_per_get", ratio(t.prefetches_issued, t.queries));
  m.emplace_back("nvm.fences_per_write", ratio(p.fences, rep.writes));
  m.emplace_back("nvm.persist_calls_per_write", ratio(p.persist_calls, rep.writes));
  m.emplace_back("nvm.delay_share", static_cast<double>(p.delay_ns) / 1e9 / rep.cpu_seconds);
  m.emplace_back("nvm.persist_share", insert_share(s.phases, obs::Phase::kPersist));
  m.emplace_back("nvm.fence_share", insert_share(s.phases, obs::Phase::kFence));
  m.emplace_back("trace.overhead_pct", median(overhead));
  m.emplace_back("trace.spans_dropped", static_cast<double>(led.spans_dropped));
  return m;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (usize i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m[i].second) ? m[i].second : 0.0);
    out += (i ? "," : "") + json_string(m[i].first) + ":" + buf;
  }
  return out + "}";
}

std::string json_errors(const Checks& c) {
  std::string out = "[";
  for (usize i = 0; i < c.errors.size(); ++i) out += (i ? "," : "") + json_string(c.errors[i]);
  return out + "]";
}

void print_rep(const char* workload, u32 rep, const Metrics& m) {
  std::string line;
  char buf[96];
  for (const auto& [name, value] : m) {
    std::snprintf(buf, sizeof(buf), " %s=%.4g", name.c_str(), value);
    line += buf;
  }
  std::fprintf(stderr, "gh_bench: %s rep %u:%s\n", workload, rep, line.c_str());
}

// ---------------------------------------------------------------------------

struct WorkloadRun {
  const Workload* w = nullptr;
  std::optional<ServiceStream> service;
  std::optional<EmbeddedStream> embedded;
  std::optional<GrowStream> grow;
  std::vector<Metrics> reps;
  Checks checks;
  Metrics per_layer;
};

RepOutcome run_rep(WorkloadRun& run, double seconds, const Args& a) {
  const PinToSlotZero pin;
  switch (run.w->shape) {
    case Shape::kServiceTimed: return run_service_timed(*run.w, *run.service, seconds);
    case Shape::kEmbedded: return run_embedded(*run.w, *run.embedded, seconds);
    case Shape::kServiceGrow: return run_grow(*run.grow, a.data_dir + "/" + run.w->name);
  }
  return {};
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "gh_bench: %s\nusage: gh_bench --workload <name|all> [--seed N] [--seconds S] "
               "[--reps R] [--trace 0|1] [--scale-shift K] [--data-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--reps") {
      a.reps = static_cast<u32>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else if (flag == "--scale-shift") {
      a.scale_shift = static_cast<u32>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--data-dir") {
      a.data_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return usage(("bad value for " + flag).c_str());
  }
  if (!(a.seconds > 0) || a.reps == 0 || a.scale_shift > 8) {
    return usage("--seconds must be > 0, --reps >= 1, --scale-shift <= 8");
  }

  std::vector<WorkloadRun> runs;
  for (const Workload& w : kWorkloads) {
    if (a.workload == "all" || a.workload == w.name) runs.emplace_back().w = &w;
  }
  if (runs.empty()) return usage(("unknown workload '" + a.workload + "'").c_str());

  // Span rings for threads that start emitting from here on; sized so one
  // ledger round's sampled spans never overwrite each other.
  obs::SpanCollector::global().set_ring_capacity(u32{1} << 16);

  for (WorkloadRun& run : runs) {
    switch (run.w->shape) {
      case Shape::kServiceTimed: run.service = make_service_stream(*run.w, a); break;
      case Shape::kEmbedded: run.embedded = make_embedded_stream(*run.w, a); break;
      case Shape::kServiceGrow: run.grow = make_grow_stream(*run.w, a); break;
    }
  }

  const double rep_seconds = a.seconds / a.reps;
  if (!a.trace) {
    // Repetitions round-robin across workloads: a slow host phase lands on
    // every workload rather than one.
    for (u32 rep = 0; rep < a.reps; ++rep) {
      for (WorkloadRun& run : runs) {
        RepOutcome out = run_rep(run, rep_seconds, a);
        out.e2e.emplace_back("failed_share", ratio(out.checks.failed, out.checks.attempted));
        print_rep(run.w->name, rep, out.e2e);
        run.reps.push_back(std::move(out.e2e));
        run.checks.absorb(out.checks);
      }
    }
  } else {
    for (WorkloadRun& run : runs) {
      RepOutcome rep = run_rep(run, rep_seconds, a);
      run.checks.absorb(rep.checks);
      run.service.reset();  // the ledger builds its own stream; free this one first
      run.embedded.reset();
      run.grow.reset();
      const LedgerStream ls = make_ledger_stream(*run.w, a);
      const LedgerResult led = run_ledger(*run.w, ls, a.reps);
      for (const LegTally& t : led.tallies) run.checks.absorb(t.checks);
      run.checks.add(led.spans_dropped == 0, "traced run dropped spans");
      run.checks.add(led.spans.requests > 0, "traced run saw no sampled request");
      for (usize leg = 0; leg < kLegs; ++leg) {
        std::fprintf(stderr, "gh_bench: %s ledger %-16s %9.1f ns/op (median of %zu rounds)\n",
                     run.w->name, kLegNames[leg], median(led.ns_per_op[leg]),
                     led.ns_per_op[leg].size());
      }
      run.per_layer = per_layer_metrics(rep, led);
      print_rep(run.w->name, 0, run.per_layer);
    }
  }

  bool correct = true;
  std::string out = "{\"seed\":" + std::to_string(a.seed) + ",\"reps\":" + std::to_string(a.reps) +
                    ",\"trace\":" + (a.trace ? "1" : "0") + ",\"workloads\":{";
  for (usize i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    correct = correct && run.checks.failed == 0;
    out += (i ? "," : "") + json_string(run.w->name) + ":{\"attempted\":" +
           std::to_string(run.checks.attempted) + ",\"failed\":" + std::to_string(run.checks.failed) +
           ",\"errors\":" + json_errors(run.checks);
    if (a.trace) {
      out += ",\"per_layer\":" + json_metrics(run.per_layer);
    } else {
      out += ",\"reps\":[";
      for (usize r = 0; r < run.reps.size(); ++r) out += (r ? "," : "") + json_metrics(run.reps[r]);
      out += "]";
    }
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
