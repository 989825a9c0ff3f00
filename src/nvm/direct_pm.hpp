// DirectPM — the production persistence policy.
//
// Stores go straight to the mapped region; persist() issues real cacheline
// flushes and a store fence and then spins for the configured emulated NVM
// write latency (one delay per line, matching the paper's methodology of
// adding 300 ns after each clflush). All traffic is counted in
// PersistStats.
//
// Every hash scheme in src/hash is templated over a persistence policy PM
// with this interface:
//
//   void   store_u64(u64* dst, u64 v);
//   void   atomic_store_u64(u64* dst, u64 v);   // 8-byte failure-atomic
//   void   copy(void* dst, const void* src, usize n);
//   void   fill(void* dst, unsigned char byte, usize n);
//   void   persist(const void* addr, usize n);  // flush lines + fence
//   void   flush(const void* addr, usize n);    // flush lines, NO fence
//   void   fence();
//   void   touch_read(const void* addr, usize n);  // read-side hook
//   PersistStats& stats();
//
// DirectPM keeps touch_read a no-op so reads cost nothing; ShadowPM uses
// the store hooks for crash simulation and TracingPM feeds both sides into
// the cache simulator.
#pragma once

#include <atomic>
#include <cstring>

#include "nvm/persist.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/types.hpp"

namespace gh::nvm {

class DirectPM {
 public:
  explicit DirectPM(PersistConfig config = PersistConfig::emulated_nvm())
      : config_(config) {}

  /// Ordinary 8-byte store. Issued as a release atomic so the optimistic
  /// lock-free readers (core/optimistic_read.hpp) can load the same words
  /// with acquire semantics without a data race: any value a reader
  /// obtains this way carries happens-before with everything the writer
  /// stored earlier (e.g. arena record bytes behind a published offset).
  /// On x86 this compiles to the same plain mov as before.
  void store_u64(u64* dst, u64 v) {
    std::atomic_ref<u64>(*dst).store(v, std::memory_order_release);
    stats_.stores++;
    stats_.bytes_written += sizeof(u64);
  }

  /// 8-byte failure-atomic publish: a release store so the payload written
  /// before it is visible first, and a single aligned 8-byte write so it
  /// cannot tear (the paper's failure-atomicity assumption).
  void atomic_store_u64(u64* dst, u64 v) {
    std::atomic_ref<u64>(*dst).store(v, std::memory_order_release);
    stats_.atomic_stores++;
    stats_.bytes_written += sizeof(u64);
  }

  void copy(void* dst, const void* src, usize n) {
    std::memcpy(dst, src, n);
    stats_.stores++;
    stats_.bytes_written += n;
  }

  void fill(void* dst, unsigned char byte, usize n) {
    std::memset(dst, byte, n);
    stats_.stores++;
    stats_.bytes_written += n;
  }

  void persist(const void* addr, usize n) {
    stats_.persist_calls++;
    flush(addr, n);
    fence();
  }

  /// Flush the cachelines covering [addr, addr+n) WITHOUT the trailing
  /// fence. The batched mutation paths issue many flushes and a single
  /// fence() per window (clflushopt... + one sfence); durability is only
  /// guaranteed once that fence retires.
  void flush(const void* addr, usize n) {
    obs::PhasePersistScope persist_scope;
    const u64 lines = lines_spanned(addr, n);
    const std::byte* line = line_begin(addr);
    for (u64 i = 0; i < lines; ++i, line += kCachelineSize) {
      if (config_.issue_real_flush) flush_line(line, config_.flush_instruction);
      if (config_.flush_latency_ns != 0) {
        spin_wait_ns(config_.flush_latency_ns);
        stats_.delay_ns += config_.flush_latency_ns;
      }
    }
    stats_.lines_flushed += lines;
  }

  void fence() {
    obs::PhaseFenceScope fence_scope;
    store_fence();
    stats_.fences++;
  }

  void touch_read(const void*, usize) {}

  [[nodiscard]] PersistStats& stats() { return stats_; }
  [[nodiscard]] const PersistStats& stats() const { return stats_; }
  [[nodiscard]] const PersistConfig& config() const { return config_; }

 private:
  PersistConfig config_;
  PersistStats stats_;
};

}  // namespace gh::nvm
