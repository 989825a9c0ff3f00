// PersistentArena — a crash-consistent append-only allocation region.
//
// The same 8-byte-failure-atomic discipline as the hash table, applied to
// variable-size data: records are written and persisted *beyond* the
// committed head, then a single atomic store advances the head over them
// (and is persisted). A crash can only lose the record being appended;
// everything below `head` is complete and immutable. No free list —
// space is reclaimed when a resize migration re-appends the reachable
// records to the target file's fresh arena (core/payload.hpp), which is
// also the honest answer for NVM allocators that must avoid
// wear-amplifying in-place reuse.
//
// Layout: Header (one cacheline) | data bytes.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>

#include "nvm/persist.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace gh::nvm {

template <class PM>
class PersistentArena {
 public:
  static constexpr u64 kMagic = 0x4748415245303031ull;  // "GHARE001"

  struct Header {
    u64 magic;
    u64 capacity;  ///< data bytes available
    u64 head;      ///< committed bytes; the 8-byte atomic commit word
    u64 reserved[5];
  };
  static_assert(sizeof(Header) == 64);

  static usize required_bytes(usize data_capacity) {
    return sizeof(Header) + round_up(data_capacity, kAtomicUnit);
  }

  PersistentArena(PM& pm, std::span<std::byte> mem, bool format) : pm_(&pm) {
    GH_CHECK(mem.size() > sizeof(Header));
    header_ = reinterpret_cast<Header*>(mem.data());
    data_ = mem.data() + sizeof(Header);
    const u64 capacity = round_down(mem.size() - sizeof(Header), kAtomicUnit);
    if (format) {
      pm.store_u64(&header_->magic, kMagic);
      pm.store_u64(&header_->capacity, capacity);
      pm.store_u64(&header_->head, 0);
      pm.persist(header_, sizeof(Header));
    } else if (header_->magic != kMagic || header_->capacity > capacity ||
               header_->head > header_->capacity) {
      throw std::runtime_error("persistent arena header is corrupt");
    }
  }

  /// Append `n` bytes; returns the record's offset, or nullopt when the
  /// arena is full. The record is durable when append() returns.
  std::optional<u64> append(const void* data, usize n) {
    const u64 offset = header_->head;
    const u64 len = round_up(n, kAtomicUnit);
    if (offset + len > header_->capacity) return std::nullopt;
    pm_->copy(data_ + offset, data, n);
    if (len != n) pm_->fill(data_ + offset + n, 0, len - n);  // deterministic padding
    pm_->persist(data_ + offset, len);
    // Commit: a crash before this store forgets the record; after it, the
    // record is fully durable (it was persisted first).
    pm_->atomic_store_u64(&header_->head, offset + len);
    pm_->persist(&header_->head, sizeof(u64));
    return offset;
  }

  /// Read-only view of a committed record's bytes.
  [[nodiscard]] std::span<const std::byte> read(u64 offset, usize n) const {
    GH_CHECK_MSG(offset + n <= header_->head, "read beyond committed arena head");
    return {data_ + offset, n};
  }

  [[nodiscard]] u64 head() const { return header_->head; }
  [[nodiscard]] u64 capacity() const { return header_->capacity; }
  [[nodiscard]] u64 remaining() const { return header_->capacity - header_->head; }

  /// Base of the data bytes, for optimistic readers that bounds-check
  /// offsets themselves instead of going through read()'s head check
  /// (a stale reader's head may lag its offset; see
  /// PersistentStringMap::optimistic_probe).
  [[nodiscard]] const std::byte* data() const { return data_; }

 private:
  PM* pm_;
  Header* header_ = nullptr;
  std::byte* data_ = nullptr;
};

}  // namespace gh::nvm
