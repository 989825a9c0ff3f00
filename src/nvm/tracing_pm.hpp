// TracingPM — persistence policy that feeds every table access into the
// cache simulator. Used by the cache-efficiency benches (Fig. 2b, Fig. 6):
// stores and reads touch the simulated hierarchy, and persist() issues
// simulated clflushes, which invalidate the lines and cause the later
// misses the paper attributes to logging. No latency is injected (these
// benches report counts, not time).
#pragma once

#include <cstring>

#include "cachesim/cache_sim.hpp"
#include "nvm/persist.hpp"
#include "util/types.hpp"

namespace gh::nvm {

class TracingPM {
 public:
  /// `flush_instruction` selects the simulated flush semantics: clflush/
  /// clflushopt invalidate the line (the paper's setting), clwb keeps it
  /// cached (see ablation_clwb).
  explicit TracingPM(cachesim::CacheSim& sim,
                     FlushInstruction flush_instruction = FlushInstruction::kClflush)
      : sim_(&sim), flush_instruction_(flush_instruction) {}

  void store_u64(u64* dst, u64 v) {
    *dst = v;
    sim_->write(dst, sizeof(u64));
    stats_.stores++;
    stats_.bytes_written += sizeof(u64);
  }

  void atomic_store_u64(u64* dst, u64 v) {
    *dst = v;
    sim_->write(dst, sizeof(u64));
    stats_.atomic_stores++;
    stats_.bytes_written += sizeof(u64);
  }

  void copy(void* dst, const void* src, usize n) {
    std::memcpy(dst, src, n);
    sim_->write(dst, n);
    stats_.stores++;
    stats_.bytes_written += n;
  }

  void fill(void* dst, unsigned char byte, usize n) {
    std::memset(dst, byte, n);
    sim_->write(dst, n);
    stats_.stores++;
    stats_.bytes_written += n;
  }

  void persist(const void* addr, usize n) {
    if (flush_keeps_line_cached(flush_instruction_)) {
      sim_->clwb(addr, n);
    } else {
      sim_->clflush(addr, n);
    }
    stats_.persist_calls++;
    const u64 lines = lines_spanned(addr, n);
    stats_.lines_flushed += lines;
    stats_.fences++;
  }

  /// Unfenced flush: same cache-simulator effect as persist() (the line
  /// leaves the cache either way) but the fence is the caller's, once per
  /// batch window.
  void flush(const void* addr, usize n) {
    if (flush_keeps_line_cached(flush_instruction_)) {
      sim_->clwb(addr, n);
    } else {
      sim_->clflush(addr, n);
    }
    const u64 lines = lines_spanned(addr, n);
    stats_.lines_flushed += lines;
  }

  void fence() {
    stats_.fences++;
  }

  void touch_read(const void* addr, usize n) { sim_->read(addr, n); }

  [[nodiscard]] PersistStats& stats() { return stats_; }
  [[nodiscard]] const PersistStats& stats() const { return stats_; }
  [[nodiscard]] cachesim::CacheSim& sim() { return *sim_; }

 private:
  cachesim::CacheSim* sim_;
  FlushInstruction flush_instruction_;
  PersistStats stats_;
};

}  // namespace gh::nvm
