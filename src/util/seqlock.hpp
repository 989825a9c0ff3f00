// SeqLock — a versioned writer lock enabling optimistic lock-free reads.
//
// The paper's commit protocol makes every mutation visible through one
// 8-byte atomic store, so a reader that observes a quiescent version
// counter around its probe has seen a consistent table. Writers serialize
// on a mutex and bump the epoch to odd before mutating and back to even
// after (Linux seqlock discipline, mapped to the C++ memory model per
// Boehm, "Can seqlocks get along with programming language memory
// models?", MSPC'12):
//
//   writer:  lock; epoch=odd; fence(release); ...stores...; epoch=even(release); unlock
//   reader:  e1=epoch(acquire); if even { ...loads...; fence(acquire);
//            e2=epoch(relaxed); valid iff e1==e2 }
//
// The release fence after the odd store keeps the mutation's stores from
// becoming visible before the odd epoch; the final release store keeps
// them visible before the even epoch. A reader that raced a writer fails
// validation and retries; after a bounded number of failures it falls
// back to acquiring the mutex (read_lock), which excludes writers without
// touching the epoch — so writer churn can never starve a reader.
// core::optimistic_read() (core/optimistic_read.hpp) is that loop, the
// one every concurrent read runs.
//
// All data read optimistically must itself be accessed with atomic
// operations (the cells' words are written via DirectPM's atomic stores),
// both for the standard's data-race rules and for clean ThreadSanitizer
// runs — TSan does not model fences, but atomic-atomic accesses are never
// reported.
#pragma once

#include <array>
#include <atomic>
#include <mutex>

#include "util/counters.hpp"
#include "util/types.hpp"

namespace gh {

/// Pause hint for spin retries (PAUSE on x86; compiler barrier elsewhere).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Contention statistics for one seqlock (one shard). Exact
/// (fetch_add) because they sit off the optimistic fast path: a read that
/// validates on the first attempt touches none of them. A read counts
/// into its thread's stripe, each on its own cacheline, so readers that
/// fall back together do not also contend on one counter line, nor write
/// the line of the lock they are about to take. Loads sum the stripes.
struct LockContention {
  static constexpr usize kReadStripes = 8;
  struct alignas(kCachelineSize) ReadStripe {
    AtomicCounter retries;    ///< optimistic attempts that failed validation
    AtomicCounter fallbacks;  ///< reads that gave up and took the lock
  };

  std::array<ReadStripe, kReadStripes> reads;
  alignas(kCachelineSize) AtomicCounter writer_waits;  ///< write acquisitions that waited

  /// One read's failed attempts, and whether it then took the lock.
  void count_read(u64 retries, bool fell_back) {
    ReadStripe& stripe = reads[thread_slot() % kReadStripes];
    if (retries != 0) stripe.retries += retries;
    if (fell_back) stripe.fallbacks += 1;
  }

  [[nodiscard]] u64 read_retries() const {
    u64 total = 0;
    for (const ReadStripe& s : reads) total += s.retries.load();
    return total;
  }

  [[nodiscard]] u64 read_fallbacks() const {
    u64 total = 0;
    for (const ReadStripe& s : reads) total += s.fallbacks.load();
    return total;
  }
};

class SeqLock {
 public:
  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  /// Begin an optimistic read. The returned epoch is stable (even) unless
  /// a writer is mid-mutation; callers seeing an odd epoch should retry
  /// (or fall back) without probing.
  [[nodiscard]] u64 read_begin() const {
    return epoch_.load(std::memory_order_acquire);
  }

  static constexpr bool epoch_stable(u64 e) { return (e & 1) == 0; }

  /// Validate an optimistic read begun at `e`. True means no writer ran
  /// during the probe and every value read is consistent.
  [[nodiscard]] bool read_validate(u64 e) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return epoch_.load(std::memory_order_relaxed) == e;
  }

  /// Exclusive writer section: epoch goes odd on entry, even on exit.
  void write_lock(LockContention* contention = nullptr) {
    if (!mu_.try_lock()) {
      if (contention != nullptr) contention->writer_waits += 1;
      mu_.lock();
    }
    begin_write();
  }

  /// write_lock() if the lock is free now; false (nothing taken, no wait
  /// counted) if another thread holds it.
  [[nodiscard]] bool try_write_lock() {
    if (!mu_.try_lock()) return false;
    begin_write();
    return true;
  }

  void write_unlock() {
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
    mu_.unlock();
  }

  /// Pessimistic reader fallback: excludes writers, leaves the epoch even
  /// (concurrent optimistic readers stay valid).
  void read_lock() { mu_.lock(); }
  void read_unlock() { mu_.unlock(); }

 private:
  void begin_write() {
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }

  std::atomic<u64> epoch_{0};
  std::mutex mu_;
};

/// RAII writer guard.
class SeqLockWriteGuard {
 public:
  explicit SeqLockWriteGuard(SeqLock& lock, LockContention* contention = nullptr)
      : lock_(lock) {
    lock_.write_lock(contention);
  }
  /// Takes over a write lock already held (a successful try_write_lock).
  SeqLockWriteGuard(SeqLock& lock, std::adopt_lock_t) : lock_(lock) {}
  ~SeqLockWriteGuard() { lock_.write_unlock(); }
  SeqLockWriteGuard(const SeqLockWriteGuard&) = delete;
  SeqLockWriteGuard& operator=(const SeqLockWriteGuard&) = delete;

 private:
  SeqLock& lock_;
};

/// RAII fallback-reader guard.
class SeqLockReadGuard {
 public:
  explicit SeqLockReadGuard(SeqLock& lock) : lock_(lock) { lock_.read_lock(); }
  ~SeqLockReadGuard() { lock_.read_unlock(); }
  SeqLockReadGuard(const SeqLockReadGuard&) = delete;
  SeqLockReadGuard& operator=(const SeqLockReadGuard&) = delete;

 private:
  SeqLock& lock_;
};

}  // namespace gh
