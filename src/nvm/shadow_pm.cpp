#include "nvm/shadow_pm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gh::nvm {

ShadowPM::ShadowPM(std::span<std::byte> live)
    : live_(live),
      shadow_(live.begin(), live.end()),
      dirty_((live.size() / kAtomicUnit + 63) / 64, 0) {
  GH_CHECK_MSG(reinterpret_cast<std::uintptr_t>(live.data()) % kAtomicUnit == 0,
               "live span must be 8-byte aligned");
  GH_CHECK_MSG(live.size() % kAtomicUnit == 0, "live span must be a multiple of 8 bytes");
}

usize ShadowPM::word_index(const void* addr) const {
  const auto* p = static_cast<const std::byte*>(addr);
  GH_DCHECK(p >= live_.data() && p < live_.data() + live_.size());
  return static_cast<usize>(p - live_.data()) / kAtomicUnit;
}

void ShadowPM::bump_event() {
  if (events_ == crash_event_) throw SimulatedCrash{};
  events_++;
}

usize ShadowPM::line_of(const void* addr) {
  return reinterpret_cast<std::uintptr_t>(addr) / kCachelineSize;
}

void ShadowPM::mark_dirty(const void* addr, usize n) {
  if (n == 0) return;
  const usize first = word_index(addr);
  const usize last = word_index(static_cast<const std::byte*>(addr) + n - 1);
  // A multi-word store is logged word by word, in address order.
  for (usize w = first; w <= last; ++w) {
    dirty_[w / 64] |= 1ull << (w % 64);
    const std::byte* p = live_.data() + w * kAtomicUnit;
    u64 value = 0;
    std::memcpy(&value, p, kAtomicUnit);
    logs_[line_of(p)].stores.emplace_back(w, value);
  }
}

void ShadowPM::store_u64(u64* dst, u64 v) {
  bump_event();
  *dst = v;
  mark_dirty(dst, sizeof(u64));
  stats_.stores++;
  stats_.bytes_written += sizeof(u64);
}

void ShadowPM::atomic_store_u64(u64* dst, u64 v) {
  bump_event();
  *dst = v;
  mark_dirty(dst, sizeof(u64));
  stats_.atomic_stores++;
  stats_.bytes_written += sizeof(u64);
}

void ShadowPM::copy(void* dst, const void* src, usize n) {
  bump_event();
  std::memmove(dst, src, n);
  mark_dirty(dst, n);
  stats_.stores++;
  stats_.bytes_written += n;
}

void ShadowPM::fill(void* dst, unsigned char byte, usize n) {
  bump_event();
  std::memset(dst, byte, n);
  mark_dirty(dst, n);
  stats_.stores++;
  stats_.bytes_written += n;
}

void ShadowPM::persist(const void* addr, usize n) {
  bump_event();
  stats_.persist_calls++;
  commit_pending();  // persist() contains a fence: earlier flushes retire too
  if (n == 0) {
    stats_.fences++;
    return;
  }
  // clflush granularity: persist the *whole* cachelines covering the range.
  const std::byte* begin = line_begin(addr);
  const std::byte* end = line_begin(static_cast<const std::byte*>(addr) + n - 1) + kCachelineSize;
  if (begin < live_.data()) begin = live_.data();
  if (end > live_.data() + live_.size()) end = live_.data() + live_.size();
  const usize off = static_cast<usize>(begin - live_.data());
  const usize len = static_cast<usize>(end - begin);
  std::memcpy(shadow_.data() + off, begin, len);
  for (usize w = off / kAtomicUnit; w < (off + len) / kAtomicUnit; ++w) {
    dirty_[w / 64] &= ~(1ull << (w % 64));
  }
  // commit_pending() left no snapshot pending, so the logs can go whole.
  for (const std::byte* p = line_begin(begin); p < end; p += kCachelineSize) {
    logs_.erase(line_of(p));
  }
  const u64 lines = lines_spanned(addr, n);
  stats_.lines_flushed += lines;
  stats_.fences++;
}

void ShadowPM::flush(const void* addr, usize n) {
  bump_event();
  if (n == 0) return;
  // An unfenced clflushopt gives no durability guarantee yet: snapshot the
  // lines' current contents and hold them pending. The covered words keep
  // their dirty bits, so materialize_crash_image can still evict the
  // (identical or newer) live words — strictly adversarial.
  const std::byte* begin = line_begin(addr);
  const std::byte* end = line_begin(static_cast<const std::byte*>(addr) + n - 1) + kCachelineSize;
  if (begin < live_.data()) begin = live_.data();
  if (end > live_.data() + live_.size()) end = live_.data() + live_.size();
  for (const std::byte* p = begin; p < end; p += kCachelineSize) {
    PendingLine line;
    line.offset = static_cast<usize>(p - live_.data());
    line.len = std::min<usize>(kCachelineSize, static_cast<usize>(end - p));
    if (const auto it = logs_.find(line_of(p)); it != logs_.end()) {
      line.log_end = it->second.dropped + it->second.stores.size();
    }
    std::memcpy(line.data.data(), p, line.len);
    pending_.push_back(line);
  }
  const u64 lines = lines_spanned(addr, n);
  stats_.lines_flushed += lines;
}

void ShadowPM::fence() {
  bump_event();
  commit_pending();
  stats_.fences++;
}

void ShadowPM::commit_pending() {
  // Applied in flush order, so a line flushed twice lands on its later
  // snapshot. A word's dirty bit is cleared only if the live word still
  // equals the snapshot being committed — a store issued after the flush
  // re-dirtied it and remains subject to arbitrary eviction.
  for (const PendingLine& line : pending_) {
    std::memcpy(shadow_.data() + line.offset, line.data.data(), line.len);
    for (usize w = line.offset / kAtomicUnit; w < (line.offset + line.len) / kAtomicUnit; ++w) {
      u64 live_word = 0;
      u64 snap_word = 0;
      std::memcpy(&live_word, live_.data() + w * kAtomicUnit, kAtomicUnit);
      std::memcpy(&snap_word, line.data.data() + (w * kAtomicUnit - line.offset), kAtomicUnit);
      if (live_word == snap_word) dirty_[w / 64] &= ~(1ull << (w % 64));
    }
    // The snapshot holds every store logged before it: drop those.
    if (const auto it = logs_.find(line_of(live_.data() + line.offset)); it != logs_.end()) {
      LineLog& log = it->second;
      if (line.log_end > log.dropped) {
        const auto covered = static_cast<std::ptrdiff_t>(line.log_end - log.dropped);
        log.stores.erase(log.stores.begin(), log.stores.begin() + covered);
        log.dropped = line.log_end;
      }
      // An empty log means no later snapshot of this line can cover more.
      if (log.stores.empty()) logs_.erase(it);
    }
  }
  pending_.clear();
}

std::vector<std::byte> ShadowPM::materialize_crash_image(CrashMode mode, u64 seed) const {
  std::vector<std::byte> image = shadow_;
  if (mode == CrashMode::kNothingEvicted) return image;
  if (mode == CrashMode::kLinePrefix) {
    for (const auto& [line, log] : logs_) {
      // Seeded per line, so the image does not depend on map order.
      Xoshiro256 rng(seed ^ (static_cast<u64>(line) * 0x9e3779b97f4a7c15ull));
      const u64 keep = rng.next_below(log.stores.size() + 1);
      for (u64 i = 0; i < keep; ++i) {
        const auto [w, value] = log.stores[i];
        std::memcpy(image.data() + w * kAtomicUnit, &value, kAtomicUnit);
      }
    }
    return image;
  }
  Xoshiro256 rng(seed);
  const usize words = live_.size() / kAtomicUnit;
  for (usize w = 0; w < words; ++w) {
    if ((dirty_[w / 64] >> (w % 64)) & 1) {
      const bool evict = mode == CrashMode::kAllEvicted || rng.next_bool();
      if (evict) {
        std::memcpy(image.data() + w * kAtomicUnit, live_.data() + w * kAtomicUnit,
                    kAtomicUnit);
      }
    }
  }
  return image;
}

void ShadowPM::reset_to_image(std::span<const std::byte> image) {
  GH_CHECK(image.size() == live_.size());
  std::memcpy(live_.data(), image.data(), image.size());
  shadow_.assign(image.begin(), image.end());
  std::fill(dirty_.begin(), dirty_.end(), 0);
  pending_.clear();  // a reboot loses in-flight (unfenced) flushes
  logs_.clear();
  crash_event_ = no_crash();
}

u64 ShadowPM::dirty_word_count() const {
  u64 n = 0;
  for (const u64 word : dirty_) n += static_cast<u64>(std::popcount(word));
  return n;
}

}  // namespace gh::nvm
