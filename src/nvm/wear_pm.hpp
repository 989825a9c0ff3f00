// WearPM — persistence policy that tracks per-cacheline write wear.
//
// The paper's Table 1 motivates write reduction with NVM endurance limits
// (PCM ~10^8 writes per cell) and §2.1 notes that eliminating duplicate
// copies "can be combined with wear-leveling schemes to further lengthen
// NVM's lifetime". This policy measures exactly that: NVM media writes
// happen when a cacheline is flushed, so persist() increments a per-line
// wear counter. The wear report gives total media writes, the hottest
// line (on every scheme: the cacheline holding the persistent `count`!),
// and distribution statistics — the ablation bench compares schemes on
// all of them.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "nvm/persist.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace gh::nvm {

struct WearReport {
  u64 total_line_writes = 0;  ///< NVM media line-writes (endurance currency)
  u64 lines_touched = 0;      ///< distinct lines written at least once
  u64 max_line_writes = 0;    ///< wear of the hottest line
  usize hottest_line_offset = 0;
  double mean_writes_per_touched_line = 0;
  /// max / mean over touched lines: >> 1 means wear-leveling would have to
  /// work hard; ~1 means writes are already even.
  double wear_imbalance = 0;
};

class WearPM {
 public:
  explicit WearPM(std::span<std::byte> tracked)
      : tracked_(tracked), wear_((tracked.size() + kCachelineSize - 1) / kCachelineSize, 0) {}

  void store_u64(u64* dst, u64 v) {
    *dst = v;
    stats_.stores++;
    stats_.bytes_written += sizeof(u64);
  }

  void atomic_store_u64(u64* dst, u64 v) {
    *dst = v;
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

  /// The wear event: a flush writes the line back to the NVM media.
  void persist(const void* addr, usize n) {
    stats_.persist_calls++;
    if (n != 0) {
      const std::byte* line = line_begin(addr);
      const u64 lines = lines_spanned(addr, n);
      for (u64 i = 0; i < lines; ++i, line += kCachelineSize) {
        bump_wear(line);
      }
      stats_.lines_flushed += lines;
    }
    stats_.fences++;
  }

  /// Unfenced flush: the write-back (and so the wear event) happens at
  /// flush time; only the ordering fence is deferred to the caller.
  void flush(const void* addr, usize n) {
    if (n == 0) return;
    const std::byte* line = line_begin(addr);
    const u64 lines = lines_spanned(addr, n);
    for (u64 i = 0; i < lines; ++i, line += kCachelineSize) {
      bump_wear(line);
    }
    stats_.lines_flushed += lines;
  }

  void fence() {
    stats_.fences++;
  }
  void touch_read(const void*, usize) {}

  [[nodiscard]] PersistStats& stats() { return stats_; }
  [[nodiscard]] const PersistStats& stats() const { return stats_; }

  [[nodiscard]] u64 line_wear(usize line_index) const { return wear_[line_index]; }
  [[nodiscard]] usize line_count() const { return wear_.size(); }

  [[nodiscard]] WearReport report() const {
    WearReport r;
    for (usize i = 0; i < wear_.size(); ++i) {
      const u64 w = wear_[i];
      if (w == 0) continue;
      r.total_line_writes += w;
      r.lines_touched++;
      if (w > r.max_line_writes) {
        r.max_line_writes = w;
        r.hottest_line_offset = i * kCachelineSize;
      }
    }
    if (r.lines_touched != 0) {
      r.mean_writes_per_touched_line =
          static_cast<double>(r.total_line_writes) / static_cast<double>(r.lines_touched);
      r.wear_imbalance =
          static_cast<double>(r.max_line_writes) / r.mean_writes_per_touched_line;
    }
    return r;
  }

  void reset_wear() { std::fill(wear_.begin(), wear_.end(), 0); }

 private:
  void bump_wear(const std::byte* line) {
    if (line >= tracked_.data() && line < tracked_.data() + tracked_.size()) {
      wear_[static_cast<usize>(line - tracked_.data()) / kCachelineSize]++;
    }
  }

  std::span<std::byte> tracked_;
  std::vector<u64> wear_;
  PersistStats stats_;
};

}  // namespace gh::nvm
