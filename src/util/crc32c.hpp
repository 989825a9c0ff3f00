// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum protecting
// this repository's persistent metadata against silent media corruption.
//
// The paper's consistency story (§3.5) assumes NVM returns exactly the
// bytes that were persisted; real persistent memory additionally exhibits
// bit rot and uncorrectable (poisoned) lines. CRC32C is the standard
// answer (iSCSI, ext4, Btrfs, and the PM-native hashing literature all
// use it) because x86 ships a hardware instruction for it. The build
// does not assume SSE4.2, so crc32c_update dispatches at run time (the
// tag_probe.hpp pattern: a `target` attribute plus
// __builtin_cpu_supports): one `crc32` instruction per 8 bytes where the
// CPU has it, the portable byte-table loop otherwise, and the table
// always under GH_NO_SIMD or off x86-64. The CPU is checked once.
//
// Group checksums (hash/group_hashing.hpp) need an *incremental* update:
// recomputing a whole group's CRC on every 16-byte cell mutation would
// turn a one-cacheline write into a multi-kilobyte scan. Instead of a
// positional CRC over the concatenated group bytes, the group checksum is
// defined as the XOR of per-cell digests,
//
//   group_digest = XOR over cells i of crc32c(cell_bytes, seed = i)
//
// which is order-independent, so a single-cell change updates in O(cell):
// XOR out the old cell's digest, XOR in the new one. Seeding each digest
// with the cell's index makes two swapped cells (or a cell sliding to a
// neighbouring slot) change the checksum, which a plain XOR of unseeded
// CRCs would miss.
#pragma once

#include <cstring>

#include "util/types.hpp"

#if defined(__x86_64__) && !defined(GH_NO_SIMD)
#include <nmmintrin.h>
#define GH_CRC32C_HW 1
#else
#define GH_CRC32C_HW 0
#endif

namespace gh {

namespace detail {

/// Byte-at-a-time table for the software fallback, generated at compile
/// time (reflected polynomial 0x82F63B78).
struct Crc32cTable {
  u32 t[256];
  constexpr Crc32cTable() : t{} {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
  }
};
inline constexpr Crc32cTable kCrc32cTable{};

inline u32 crc32c_update_table(u32 crc, const unsigned char* p, usize len) {
  while (len-- > 0) crc = kCrc32cTable.t[(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

#if GH_CRC32C_HW
/// SSE4.2 `crc32` (target attribute: safe to compile without -msse4.2;
/// only called after the run-time check).
__attribute__((target("sse4.2"))) inline u32 crc32c_update_hw(u32 crc, const unsigned char* p,
                                                              usize len) {
  u64 c = crc;
  for (; len >= 8; p += 8, len -= 8) {
    u64 word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  crc = static_cast<u32>(c);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

/// Whether the CPU has SSE4.2 (checked on the first call).
inline bool crc32c_hw_supported() {
  static const bool supported = __builtin_cpu_supports("sse4.2") != 0;
  return supported;
}
#endif

}  // namespace detail

/// Raw CRC32C update: feeds `len` bytes into state `crc` (no init/final
/// complement — callers compose these below).
inline u32 crc32c_update(u32 crc, const void* data, usize len) {
  const auto* p = static_cast<const unsigned char*>(data);
#if GH_CRC32C_HW
  if (detail::crc32c_hw_supported()) return detail::crc32c_update_hw(crc, p, len);
#endif
  return detail::crc32c_update_table(crc, p, len);
}

/// Standard CRC32C of a byte range (init ~0, final complement). Matches
/// the RFC 3720 test vectors.
inline u32 crc32c(const void* data, usize len) {
  return ~crc32c_update(~0u, data, len);
}

/// CRC32C seeded with an arbitrary 64-bit value mixed in ahead of the
/// data — the per-cell digest primitive for the incremental group
/// checksum (seed = cell index), and a cheap way to domain-separate
/// checksums of different structures.
inline u32 crc32c_seeded(u64 seed, const void* data, usize len) {
  u32 crc = crc32c_update(~0u, &seed, sizeof(seed));
  return ~crc32c_update(crc, data, len);
}

}  // namespace gh
