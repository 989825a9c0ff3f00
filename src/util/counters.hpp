// Counters safe to touch from multiple threads.
//
// RelaxedCounter — statistics counter. Increments use a relaxed
// load-add-store (plain mov/add/mov on x86: no lock prefix, no overhead
// on the single-threaded hot paths where all the paper's measurements
// run). Under true concurrency increments may be lost — statistics are
// documented as approximate there — but the behaviour is defined, unlike
// racing on a plain u64.
//
// AtomicCounter — exact counter (fetch_add). Used where correctness
// depends on the value (the table's logical count) or where tests assert
// on it (the seqlock contention counters in util/seqlock.hpp), and where
// the per-op cost of one lock-prefixed add is irrelevant.
//
// thread_slot — a small per-thread index for striping such counters.
#pragma once

#include <atomic>

#include "util/types.hpp"

namespace gh {

class RelaxedCounter {
 public:
  constexpr RelaxedCounter(u64 v = 0) : v_(v) {}  // NOLINT(google-explicit-constructor)
  RelaxedCounter(const RelaxedCounter& o) : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(u64 v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  void operator++(int) { add(1); }
  RelaxedCounter& operator++() {
    add(1);
    return *this;
  }
  RelaxedCounter& operator+=(u64 d) {
    add(d);
    return *this;
  }

  [[nodiscard]] u64 load() const { return v_.load(std::memory_order_relaxed); }
  operator u64() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  void add(u64 d) { v_.store(v_.load(std::memory_order_relaxed) + d, std::memory_order_relaxed); }

  std::atomic<u64> v_;
};

class AtomicCounter {
 public:
  constexpr AtomicCounter(u64 v = 0) : v_(v) {}  // NOLINT(google-explicit-constructor)
  AtomicCounter(const AtomicCounter& o) : v_(o.load()) {}
  AtomicCounter& operator=(const AtomicCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator=(u64 v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  AtomicCounter& operator+=(u64 d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

  /// Atomically zero the counter and return the previous value (interval
  /// sampling: per-phase contention deltas in benches/tests).
  u64 reset() { return v_.exchange(0, std::memory_order_relaxed); }

  [[nodiscard]] u64 load() const { return v_.load(std::memory_order_relaxed); }
  operator u64() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<u64> v_;
};

/// The calling thread's small index, assigned round-robin on first use.
/// Striped counters and per-thread rings take it modulo their width, so
/// threads spread over the stripes and each thread keeps to its own.
inline u32 thread_slot() {
  static std::atomic<u32> next{0};
  static thread_local const u32 slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace gh
