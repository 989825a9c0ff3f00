// CorruptingPM — media-fault injection policy (sibling of ShadowPM /
// WearPM / TracingPM).
//
// ShadowPM models *crashes*: the durable image is a prefix of the
// persisted writes. Real NVM additionally misbehaves while powered:
//
//   * bit rot — retention failures silently flip stored bits;
//   * torn writes — a multi-word store interrupted below the 8-byte
//     atomicity unit leaves a prefix of the new bytes;
//   * poisoned lines — uncorrectable errors: the DIMM marks the line and
//     every read of it faults (SIGBUS on real DAX; see media_error.hpp).
//
// CorruptingPM injects all three into a tracked span, deterministically
// (seeded), while forwarding the PM-policy interface so any hash scheme
// runs on it unmodified:
//
//   * flip_random_bits(seed, n) flips n seeded-random bits at rest;
//   * arm_tear(words) truncates the NEXT multi-word copy()/fill() after
//     `words` 8-byte units — the store "completed" from the program's
//     view but only a prefix reached media;
//   * poison_line(offset) marks a cacheline uncorrectable: any
//     touch_read() overlapping it throws MediaError (typed, catchable —
//     the emulated analogue of the SIGBUS translation). A store to a
//     poisoned line heals it, modelling the clear-on-write / page
//     remapping a real PM driver performs.
//
// Detection is the structure's job: the corruption counters here only
// record what was injected, so tests can assert detect-or-correct against
// ground truth.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nvm/media_error.hpp"
#include "nvm/persist.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace gh::nvm {

class CorruptingPM {
 public:
  explicit CorruptingPM(std::span<std::byte> tracked) : tracked_(tracked) {}

  // --- PM policy interface -------------------------------------------------

  void store_u64(u64* dst, u64 v) {
    heal_on_write(dst, sizeof(u64));
    *dst = v;
    stats_.stores++;
    stats_.bytes_written += sizeof(u64);
  }

  /// 8-byte failure-atomic publish: never torn (the paper's atomicity
  /// assumption holds at and below the atomic unit).
  void atomic_store_u64(u64* dst, u64 v) {
    heal_on_write(dst, sizeof(u64));
    *dst = v;
    stats_.atomic_stores++;
    stats_.bytes_written += sizeof(u64);
  }

  void copy(void* dst, const void* src, usize n) {
    heal_on_write(dst, n);
    const usize written = maybe_tear(n);
    std::memcpy(dst, src, written);
    stats_.stores++;
    stats_.bytes_written += written;
  }

  void fill(void* dst, unsigned char byte, usize n) {
    heal_on_write(dst, n);
    const usize written = maybe_tear(n);
    std::memset(dst, byte, written);
    stats_.stores++;
    stats_.bytes_written += written;
  }

  void persist(const void* addr, usize n) {
    stats_.persist_calls++;
    const u64 lines = lines_spanned(addr, n);
    stats_.lines_flushed += lines;
    stats_.fences++;
  }

  /// Unfenced flush: counts line traffic only (no data motion to model).
  void flush(const void* addr, usize n) {
    const u64 lines = lines_spanned(addr, n);
    stats_.lines_flushed += lines;
  }

  void fence() {
    stats_.fences++;
  }

  /// The read hook every scheme's probe() goes through: a poisoned line
  /// in [addr, addr+n) surfaces as a typed MediaError, exactly like the
  /// SIGBUS translation does for a real poisoned DAX page. Lines are
  /// counted relative to the tracked span's base (offset 0 starts line
  /// 0), so injection offsets and detection agree regardless of the
  /// buffer's actual address alignment.
  void touch_read(const void* addr, usize n) {
    if (poisoned_.empty() || n == 0) return;
    const auto [first, last] = span_lines(addr, n);
    for (usize line = first; line <= last && last != kOutside; line += kCachelineSize) {
      if (poisoned_.contains(line)) {
        poison_reads_++;
        throw MediaError(line, "uncorrectable media error (poisoned line) at offset " +
                                   std::to_string(line));
      }
    }
  }

  [[nodiscard]] PersistStats& stats() { return stats_; }
  [[nodiscard]] const PersistStats& stats() const { return stats_; }

  // --- fault injection -----------------------------------------------------

  /// Flip `count` uniformly random bits in the tracked span (at-rest bit
  /// rot). Deterministic for a given seed. Returns the flipped byte
  /// offsets (ground truth for tests).
  std::vector<usize> flip_random_bits(u64 seed, usize count) {
    Xoshiro256 rng(seed);
    std::vector<usize> offsets;
    offsets.reserve(count);
    for (usize i = 0; i < count; ++i) {
      const usize byte = static_cast<usize>(rng.next_below(tracked_.size()));
      const unsigned bit = static_cast<unsigned>(rng.next_below(8));
      tracked_[byte] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      offsets.push_back(byte);
      bits_flipped_++;
    }
    return offsets;
  }

  /// Flip one specific bit (targeted injection).
  void flip_bit(usize byte_offset, unsigned bit) {
    GH_CHECK(byte_offset < tracked_.size() && bit < 8);
    tracked_[byte_offset] ^= std::byte{static_cast<unsigned char>(1u << bit)};
    bits_flipped_++;
  }

  /// The NEXT multi-word copy()/fill() writes only its first `words`
  /// 8-byte units; the rest never reaches media. Models a non-atomic
  /// store sequence interrupted mid-way without the program noticing.
  void arm_tear(usize words) {
    tear_armed_ = true;
    tear_words_ = words;
  }

  /// Mark the cacheline containing `offset` poisoned. Reads of it throw
  /// MediaError until a store overlaps (heals) it.
  void poison_line(usize offset) {
    GH_CHECK(offset < tracked_.size());
    poisoned_.insert(round_down(offset, kCachelineSize));
    lines_poisoned_++;
  }

  [[nodiscard]] bool line_poisoned(usize offset) const {
    return poisoned_.contains(round_down(offset, kCachelineSize));
  }

  [[nodiscard]] u64 bits_flipped() const { return bits_flipped_; }
  [[nodiscard]] u64 lines_poisoned() const { return lines_poisoned_; }
  [[nodiscard]] u64 poison_reads() const { return poison_reads_; }
  [[nodiscard]] u64 tears_injected() const { return tears_injected_; }
  [[nodiscard]] usize poisoned_line_count() const { return poisoned_.size(); }

 private:
  static constexpr usize kOutside = ~usize{0};

  /// Span-relative line range [first, last] (line-aligned offsets) of the
  /// intersection of [addr, addr+n) with the tracked span; {kOutside,
  /// kOutside} when they do not overlap.
  [[nodiscard]] std::pair<usize, usize> span_lines(const void* addr, usize n) const {
    const auto* b = static_cast<const std::byte*>(addr);
    const std::byte* lo = std::max<const std::byte*>(b, tracked_.data());
    const std::byte* hi =
        std::min<const std::byte*>(b + n, tracked_.data() + tracked_.size());
    if (lo >= hi) return {kOutside, kOutside};
    const auto first = static_cast<usize>(lo - tracked_.data());
    const auto last = static_cast<usize>(hi - 1 - tracked_.data());
    return {round_down(first, kCachelineSize), round_down(last, kCachelineSize)};
  }

  /// Writes clear poison on every line they touch (clear-on-write).
  void heal_on_write(const void* addr, usize n) {
    if (poisoned_.empty() || n == 0) return;
    const auto [first, last] = span_lines(addr, n);
    for (usize line = first; line <= last && last != kOutside; line += kCachelineSize) {
      poisoned_.erase(line);
    }
  }

  [[nodiscard]] usize maybe_tear(usize n) {
    if (!tear_armed_ || n <= kAtomicUnit) return n;
    tear_armed_ = false;
    tears_injected_++;
    return std::min(n, tear_words_ * kAtomicUnit);
  }

  std::span<std::byte> tracked_;
  std::unordered_set<usize> poisoned_;  ///< line-aligned offsets
  bool tear_armed_ = false;
  usize tear_words_ = 0;
  u64 bits_flipped_ = 0;
  u64 lines_poisoned_ = 0;
  u64 poison_reads_ = 0;
  u64 tears_injected_ = 0;
  PersistStats stats_;
};

}  // namespace gh::nvm
