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
// them visible before the even epoch. A reader that meets an odd epoch
// spins on the epoch word until the writer's section ends; a reader that
// raced a writer fails validation and retries. After a bounded number of
// failed validations, or a section longer than the spin bound, it falls
// back to acquiring the mutex (read_lock), which excludes writers without
// touching the epoch — so writer churn can never starve a reader.
// core::optimistic_read() (core/optimistic_read.hpp) is that loop, the
// one every concurrent read runs.
//
// Every wait here spins before it parks. A write section is short (its
// stores, one flushed line, one fence: a few microseconds at the tail),
// far shorter than a futex sleep and wake-up, so a waiter PAUSEs for up
// to kSpinBeforeParkNs (a SpinBudget) and only then blocks: an
// optimistic reader by falling back to the lock, a locker in mu_.lock().
// The mutex stays the parking primitive (DESIGN.md, "Optimistic reads").
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

#include "util/clock.hpp"
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

/// How long a waiter spins on a busy shard before it parks (a locker) or
/// gives up its optimistic read (a reader). It covers a scalar write
/// section with margin: on a 4-vCPU x86 host their p99 measured 2.4 us,
/// and 99.96% of them ended within the bound (DESIGN.md, "Optimistic
/// reads"). Time, not a PAUSE count, because one PAUSE takes ~10 to
/// ~140 cycles depending on the CPU.
inline constexpr u64 kSpinBeforeParkNs = 10'000;

/// One wait's spin allowance: kSpinBeforeParkNs from its first spin,
/// however many spins it is split over. The clock starts on the first
/// spin, so a wait that never spins never reads it.
class SpinBudget {
 public:
  /// PAUSE until `done()` holds (true) or the allowance is spent (false).
  /// `done()` is checked once more after the last PAUSE.
  template <class Done>
  [[nodiscard]] bool spin_until(Done&& done) {
    if (start_ns_ == 0) start_ns_ = now_ns();
    for (;;) {
      for (u32 i = 0; i < kPausesPerClockRead; ++i) {
        if (done()) return true;
        cpu_relax();
      }
      if (now_ns() - start_ns_ >= kSpinBeforeParkNs) return done();
    }
  }

 private:
  /// PAUSEs between clock reads: a clock read costs about two PAUSEs
  /// (~30 ns against ~15 ns on a 4-vCPU x86 VM), a fifth of the spin.
  static constexpr u32 kPausesPerClockRead = 8;
  u64 start_ns_ = 0;
};

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
  alignas(kCachelineSize) AtomicCounter writer_waits;  ///< write acquisitions that parked

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

  /// Spin until the epoch moves off `epoch` (the odd epoch of a writer's
  /// section); false when `budget` ran out first. Out of line and cold:
  /// it is the slow path of every optimistic read.
  [[nodiscard, gnu::noinline, gnu::cold]] bool wait_past(u64 epoch, SpinBudget& budget) const {
    return budget.spin_until([&] { return epoch_.load(std::memory_order_relaxed) != epoch; });
  }

  /// Exclusive writer section: epoch goes odd on entry, even on exit. A
  /// writer that finds the lock busy spins for it; one that then parks
  /// counts one writer wait.
  void write_lock(LockContention* contention = nullptr) {
    if (!mu_.try_lock() && !spin_for_lock()) {
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
  void read_lock() {
    if (!mu_.try_lock() && !spin_for_lock()) mu_.lock();
  }
  void read_unlock() { mu_.unlock(); }

 private:
  /// Spin for a busy lock for one SpinBudget; true when it was taken.
  /// While the epoch is odd a writer holds the mutex, so the spin only
  /// reads the epoch's line, and tries the mutex once the section has
  /// ended (or while a fallback reader holds it).
  [[gnu::noinline]] bool spin_for_lock() {
    SpinBudget budget;
    return budget.spin_until([&] {
      return epoch_stable(epoch_.load(std::memory_order_relaxed)) && mu_.try_lock();
    });
  }

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
