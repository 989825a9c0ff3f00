// ShadowPM — crash-persistence simulator.
//
// The policy runs the data structure on ordinary "live" memory (standing
// in for the CPU cache + NVM as the running program sees them) while
// maintaining a *shadow image* holding only the bytes guaranteed durable:
// persist(addr, n) copies the full cachelines covering the range from live
// to shadow (clflush persists whole lines, so neighbouring dirty words in
// the same line become durable too) and clears their dirty bits.
//
// A simulated power failure ("crash") can be injected at any persistence
// event. At crash time the durable state is the shadow image *plus an
// arbitrary subset of dirty 8-byte words* — modelling that a write-back
// cache may have evicted any dirty line (or part of one, down to the
// 8-byte atomicity unit) at any moment before the crash. Recovery code is
// then run against the materialised image and invariants are checked.
// This is strictly more adversarial than cutting power on real hardware.
//
// CrashMode::kLinePrefix is the x86 model instead: stores to one cacheline
// reach media in program order (Raad et al., "Persistency semantics of the
// Intel-x86 architecture", POPL 2020), so each line survives as the shadow
// plus a *prefix* of the 8-byte stores issued to it since its last fenced
// flush, lines independently. A per-line store log records that order; a
// fence that retires a flush snapshot drops the entries it covers.
#pragma once

#include <array>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "nvm/persist.hpp"
#include "util/types.hpp"

namespace gh::nvm {

/// Thrown when the configured crash point is reached. The structure under
/// test must be exception-transparent (no catch) so the harness unwinds to
/// the test.
struct SimulatedCrash : std::exception {
  const char* what() const noexcept override { return "simulated NVM crash"; }
};

/// How unflushed (dirty) words are treated when the crash image is built.
enum class CrashMode {
  kNothingEvicted,  ///< only explicitly persisted data survives
  kAllEvicted,      ///< every dirty word happened to be written back
  kRandomEviction,  ///< each dirty 8-byte word survives with p=1/2 (seeded)
  /// Each line keeps a seeded random program-order prefix of its unfenced
  /// stores (x86 in-line persist order); kNothingEvicted and kAllEvicted
  /// are its two extremes.
  kLinePrefix,
};

class ShadowPM {
 public:
  /// `live` is the memory the structure mutates. It must be 8-byte aligned.
  explicit ShadowPM(std::span<std::byte> live);

  // --- PM policy interface -------------------------------------------------
  void store_u64(u64* dst, u64 v);
  void atomic_store_u64(u64* dst, u64 v);
  void copy(void* dst, const void* src, usize n);
  void fill(void* dst, unsigned char byte, usize n);
  void persist(const void* addr, usize n);
  void flush(const void* addr, usize n);
  void fence();
  void touch_read(const void*, usize) {}
  [[nodiscard]] PersistStats& stats() { return stats_; }
  [[nodiscard]] const PersistStats& stats() const { return stats_; }

  // --- crash control -------------------------------------------------------

  /// Total persistence events (stores + persists + fences) processed so
  /// far. A dry run records this; tests then re-run with crash_at = k for
  /// every k < total.
  [[nodiscard]] u64 event_count() const { return events_; }

  /// Arm a crash: SimulatedCrash is thrown just before event `event_index`
  /// executes. Pass no_crash() to disarm.
  void crash_at_event(u64 event_index) { crash_event_ = event_index; }
  static constexpr u64 no_crash() { return ~0ull; }

  /// Build the post-crash NVM image (same size as the live span).
  [[nodiscard]] std::vector<std::byte> materialize_crash_image(CrashMode mode,
                                                               u64 seed = 0) const;

  /// Copy an image (e.g. a crash image) back over the live span and mark
  /// everything clean, as if the machine rebooted with this NVM content.
  void reset_to_image(std::span<const std::byte> image);

  /// Number of dirty (unflushed) 8-byte words — useful for asserting a
  /// structure persisted everything it promised to.
  [[nodiscard]] u64 dirty_word_count() const;

 private:
  /// One flushed-but-unfenced cacheline: the snapshot flush() took of its
  /// contents. It only becomes durable (copied to shadow) when a later
  /// fence()/persist() retires — a bare clflushopt guarantees nothing.
  struct PendingLine {
    usize offset = 0;  ///< live-span offset
    usize len = 0;     ///< bytes snapshotted (≤ one line; clamped at span edges)
    u64 log_end = 0;   ///< the line's store-log position the snapshot covers
    std::array<std::byte, kCachelineSize> data{};
  };

  /// One line's stores since its last durable snapshot, in program order.
  struct LineLog {
    u64 dropped = 0;  ///< entries already covered by a committed snapshot
    std::vector<std::pair<usize, u64>> stores;  ///< (word index, value stored)
  };

  void bump_event();
  /// Mark the words covering [addr, addr + n) dirty and log them as just
  /// stored.
  void mark_dirty(const void* addr, usize n);
  [[nodiscard]] static usize line_of(const void* addr);
  void commit_pending();
  [[nodiscard]] usize word_index(const void* addr) const;

  std::span<std::byte> live_;
  std::vector<std::byte> shadow_;
  std::vector<u64> dirty_;  // bitmap, one bit per 8-byte word
  std::vector<PendingLine> pending_;  ///< flushed, awaiting a fence
  std::unordered_map<usize, LineLog> logs_;  ///< keyed by line_of()
  u64 events_ = 0;
  u64 crash_event_ = no_crash();
  PersistStats stats_;
};

}  // namespace gh::nvm
