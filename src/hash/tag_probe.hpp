// Fingerprint-tag probing (Dash-style, PAPERS.md).
//
// Group hashing probes up to group_size (default 256) level-2 cells per
// lookup, each a full 8/16-byte key compare against PM-resident cells.
// This header adds the filtering layer in front of those compares: a
// DRAM-only array of 1-byte tags, one per cell, derived from the key
// hash. A probe first scans the group's tags — 256 contiguous bytes, 4
// cachelines — with SSE2/AVX2 equality compares and only dereferences
// the cells whose tag matches. With an 8-bit fingerprint (255 live
// values) the expected number of false-positive cell touches per miss is
// group_size/255 ≈ 1.
//
// The tag array is volatile by design: it is rebuilt from the cells on
// open/recovery, so the PM format (and the paper's 8-byte-commit crash
// discipline) is untouched. Invariant outside a mutation critical
// section: tag[i] == 0  ⟺  cell i unoccupied; otherwise tag[i] ==
// tag_of_hash(hash(cell key)). Tag 0 never collides with a live key's
// tag because tag_of_hash maps a zero top byte to 1.
//
// Dispatch is at runtime (AVX2 when the CPU has it, else SSE2 — baseline
// on x86-64), with a portable scalar fallback compiled when GH_NO_SIMD
// is defined or the target is not x86-64. force_simd_level() caps the
// level for SIMD-vs-scalar equivalence tests.
#pragma once

#include <atomic>
#include <bit>

#include "util/types.hpp"

#if defined(__x86_64__) && !defined(GH_NO_SIMD)
#include <immintrin.h>
#define GH_TAG_SIMD_X86 1
#else
#define GH_TAG_SIMD_X86 0
#endif

namespace gh::hash {

/// 1-byte fingerprint of a key hash: its top byte. Uses the TOP hash
/// bits — the low bits pick the bucket (k = h & mask), so reusing them
/// would make every key in a level-1 slot share a tag. A zero top byte
/// becomes 1, which keeps occupied tags disjoint from the empty marker 0
/// and leaves 255 live values (1 twice as likely as the others).
[[nodiscard]] constexpr u8 tag_of_hash(u64 h) {
  const auto top = static_cast<u8>(h >> 56);
  return top == 0 ? u8{1} : top;
}

enum class SimdLevel : u8 { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

namespace detail {
inline std::atomic<u8>& simd_cap() {
  static std::atomic<u8> cap{static_cast<u8>(SimdLevel::kAvx2)};
  return cap;
}
}  // namespace detail

/// What the hardware supports (cached after the first call).
[[nodiscard]] inline SimdLevel detected_simd_level() {
#if GH_TAG_SIMD_X86
  static const SimdLevel lvl =
      __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kSse2;
  return lvl;
#else
  return SimdLevel::kScalar;
#endif
}

/// Test hook: cap the dispatch level (e.g. kScalar to run the portable
/// path on a machine with AVX2). Affects every table in the process.
inline void force_simd_level(SimdLevel cap) {
  detail::simd_cap().store(static_cast<u8>(cap), std::memory_order_relaxed);
}

/// The level probe loops actually use: min(detected, forced cap).
[[nodiscard]] inline SimdLevel active_simd_level() {
  const u8 cap = detail::simd_cap().load(std::memory_order_relaxed);
  const u8 det = static_cast<u8>(detected_simd_level());
  return static_cast<SimdLevel>(det < cap ? det : cap);
}

#if GH_TAG_SIMD_X86
/// Bitmask of positions in tags[0..16) equal to `tag` (SSE2, baseline).
[[nodiscard]] inline u32 tag_match_mask16(const u8* tags, u8 tag) {
  const __m128i probe = _mm_set1_epi8(static_cast<char>(tag));
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  return static_cast<u32>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, probe)));
}

/// Bitmask of positions in tags[0..32) equal to `tag` (AVX2 via target
/// attribute — safe to compile without -mavx2; only called after the
/// runtime dispatch check).
[[nodiscard]] __attribute__((target("avx2"))) inline u32 tag_match_mask32(const u8* tags,
                                                                          u8 tag) {
  const __m256i probe = _mm256_set1_epi8(static_cast<char>(tag));
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  return static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, probe)));
}
#endif

/// Visit the indices i in [0, n) with tags[i] == tag, in ascending order.
/// `visit(i)` returns true to stop early (key found). Loads are plain —
/// callers must hold the structure quiescent (single-threaded, or under
/// the shard write lock, or a lock-held read). The optimistic
/// seqlock read path must NOT use this; it scans with per-byte atomic
/// loads instead (core/optimistic_read.hpp).
template <class Visit>
inline void for_each_tag_match(const u8* tags, u32 n, u8 tag, Visit&& visit) {
  u32 i = 0;
#if GH_TAG_SIMD_X86
  const SimdLevel lvl = active_simd_level();
  if (lvl == SimdLevel::kAvx2) {
    for (; i + 32 <= n; i += 32) {
      u32 m = tag_match_mask32(tags + i, tag);
      while (m != 0) {
        if (visit(i + static_cast<u32>(std::countr_zero(m)))) return;
        m &= m - 1;
      }
    }
  }
  if (lvl >= SimdLevel::kSse2) {
    for (; i + 16 <= n; i += 16) {
      u32 m = tag_match_mask16(tags + i, tag);
      while (m != 0) {
        if (visit(i + static_cast<u32>(std::countr_zero(m)))) return;
        m &= m - 1;
      }
    }
  }
#endif
  for (; i < n; ++i) {
    if (tags[i] == tag && visit(i)) return;
  }
}

// --- second-stage filter: 16-bit in-cell tags (Cell32) ---------------------
//
// 32-byte cells carry a 16-bit key tag inside their 64-bit commit word
// (bitmap(63) | tag(15..0)). The DRAM byte-tag sweep above leaves ~2
// candidates per group; before paying a full 16-byte key compare per
// candidate, this stage compares the candidates' commit words against the
// probe key's expected word in one vector compare. Only candidates whose
// in-cell tag ALSO matches get the key compare — a byte-tag collision
// (about 1/255) and an in-cell-tag collision (1/65536) must now coincide
// for a false full compare.

namespace detail {
#if GH_TAG_SIMD_X86
/// AVX2: gather 4 candidate commit words (cells are `stride_words` u64s
/// apart; the commit word is word 0) and compare all 4 at once.
__attribute__((target("avx2"))) inline u32 in_cell_filter_avx2(const u64* cell_words,
                                                               u32 stride_words, u32* idxs,
                                                               u32 count, u64 expect) {
  u32 out = 0;
  u32 i = 0;
  const __m256i want = _mm256_set1_epi64x(static_cast<long long>(expect));
  for (; i + 4 <= count; i += 4) {
    const __m256i vidx =
        _mm256_set_epi64x(static_cast<long long>(idxs[i + 3]) * stride_words,
                          static_cast<long long>(idxs[i + 2]) * stride_words,
                          static_cast<long long>(idxs[i + 1]) * stride_words,
                          static_cast<long long>(idxs[i + 0]) * stride_words);
    const __m256i v =
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(cell_words), vidx,
                               /*scale=*/8);
    u32 m = static_cast<u32>(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, want))));
    while (m != 0) {
      idxs[out++] = idxs[i + static_cast<u32>(std::countr_zero(m))];
      m &= m - 1;
    }
  }
  for (; i < count; ++i) {
    if (cell_words[static_cast<u64>(idxs[i]) * stride_words] == expect) idxs[out++] = idxs[i];
  }
  return out;
}

/// SSE2 (baseline): pack 2 candidate commit words and compare pairwise.
/// SSE2 has no 64-bit equality, so require both 32-bit halves equal.
inline u32 in_cell_filter_sse2(const u64* cell_words, u32 stride_words, u32* idxs, u32 count,
                               u64 expect) {
  u32 out = 0;
  u32 i = 0;
  const __m128i want = _mm_set1_epi64x(static_cast<long long>(expect));
  for (; i + 2 <= count; i += 2) {
    const __m128i v =
        _mm_set_epi64x(static_cast<long long>(cell_words[static_cast<u64>(idxs[i + 1]) * stride_words]),
                       static_cast<long long>(cell_words[static_cast<u64>(idxs[i]) * stride_words]));
    const u32 m = static_cast<u32>(_mm_movemask_epi8(_mm_cmpeq_epi32(v, want)));
    if ((m & 0x00ffu) == 0x00ffu) idxs[out++] = idxs[i];
    if ((m & 0xff00u) == 0xff00u) idxs[out++] = idxs[i + 1];
  }
  for (; i < count; ++i) {
    if (cell_words[static_cast<u64>(idxs[i]) * stride_words] == expect) idxs[out++] = idxs[i];
  }
  return out;
}
#endif
}  // namespace detail

/// Keep only the candidates whose in-cell 64-bit commit word equals
/// `expect`. `cell_words` is the group's first cell viewed as u64s;
/// candidate i's commit word is cell_words[idxs[i] * stride_words].
/// Compacts `idxs` in place preserving order and returns the surviving
/// count. Dispatched like for_each_tag_match, same quiescence contract
/// (NOT for the optimistic seqlock read path).
[[nodiscard]] inline u32 filter_in_cell_tags(const u64* cell_words, u32 stride_words, u32* idxs,
                                             u32 count, u64 expect) {
#if GH_TAG_SIMD_X86
  const SimdLevel lvl = active_simd_level();
  if (lvl == SimdLevel::kAvx2) {
    return detail::in_cell_filter_avx2(cell_words, stride_words, idxs, count, expect);
  }
  if (lvl == SimdLevel::kSse2) {
    return detail::in_cell_filter_sse2(cell_words, stride_words, idxs, count, expect);
  }
#endif
  u32 out = 0;
  for (u32 i = 0; i < count; ++i) {
    if (cell_words[static_cast<u64>(idxs[i]) * stride_words] == expect) idxs[out++] = idxs[i];
  }
  return out;
}

/// Atomic tag accessors. Writers store release so the optimistic readers'
/// relaxed loads never race (both sides atomic); lock-held readers may
/// keep using plain/SIMD loads, which the locks already order.
inline void tag_store(u8* slot, u8 v) {
  std::atomic_ref<u8>(*slot).store(v, std::memory_order_release);
}

[[nodiscard]] inline u8 tag_load_relaxed(const u8* slot) {
  return std::atomic_ref<const u8>(*slot).load(std::memory_order_relaxed);
}

}  // namespace gh::hash
