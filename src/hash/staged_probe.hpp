// Probe prefetching and the staged batched-lookup kernel.
//
// A group-hashing lookup reads, in order: the key's level-1 tag byte, its
// level-1 cell, and — only when level 1 does not answer — its level-2
// group's tag lines (at most four, 256 tags) and the group cells whose
// tag matches. Group hashing answers most lookups at level 1 (§3.2), so
// the level-2 lines are the fallback, not the common case.
//
// A single-key probe (find, find_cell, the optimistic get, a put or erase
// window's keys) prefetches every line it may read right after hashing
// (prefetch_probe_lines): its three to five misses overlap instead of
// queueing, and a level-2 fallback costs no extra round trip.
//
// A batch of lookups can do better: staged_probe() walks windows of up to
// kStagedWindow keys in four stages, each prefetching only what the next
// stage reads:
//   A. hash every key; prefetch its level-1 tag byte and level-1 cell;
//   B. answer every key its level-1 cell holds; for each other key,
//      prefetch its level-2 group's tag lines and queue it;
//   C. sweep each queued key's group tags; prefetch its candidate cells;
//   D. resolve each queued key over its group; a key stage C found no
//      candidate for is absent, and its group is not swept again.
// A key level 1 answers costs two prefetches; a queued key adds its tag
// lines and one per candidate cell (DESIGN.md "Batched lookups").
//
// A prefetch never faults and reads nothing into the program, so the
// lock-free probes issue them too (core/optimistic_read.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "util/types.hpp"

namespace gh::hash {

/// Prefetch the level-1 tag byte and cell of home slot `k`. Returns the
/// number of prefetches issued.
template <class Cell>
inline u64 prefetch_home_lines(const Cell* tab1, const u8* tags1, u64 k) {
  __builtin_prefetch(tags1 + k, /*rw=*/0, /*locality=*/1);
  __builtin_prefetch(&tab1[k], /*rw=*/0, /*locality=*/1);
  return 2;
}

/// Prefetch the tag lines of the level-2 group starting at cell `j`, at
/// most four (256 tags; jumbo groups are capped). Returns the number of
/// prefetches issued.
inline u64 prefetch_group_tag_lines(const u8* tags2, u64 j, u32 group_size) {
  const u64 tag_lines = std::min<u64>((group_size + kCachelineSize - 1) / kCachelineSize, 4);
  for (u64 line = 0; line < tag_lines; ++line) {
    __builtin_prefetch(tags2 + j + line * kCachelineSize, /*rw=*/0, /*locality=*/1);
  }
  return tag_lines;
}

/// Prefetch every line a single-key probe of hash `h` may read: its
/// level-1 tag byte and cell and its level-2 group's tag lines. Returns
/// the number of prefetches issued.
template <class Cell>
inline u64 prefetch_probe_lines(const Cell* tab1, const u8* tags1, const u8* tags2, u64 mask,
                                u32 group_size, u64 h) {
  const u64 k = h & mask;
  return prefetch_home_lines(tab1, tags1, k) +
         prefetch_group_tag_lines(tags2, k - k % group_size, group_size);
}

/// Keys per staged window (the mutation windows' kBatchWindow). A window
/// has up to two level-1 lines per key in flight at once.
inline constexpr usize kStagedWindow = 32;

/// The staged lookup kernel (stages A-D above) over one table. `Probe`
/// is that table's probe set under one load policy:
///   key_type
///   u64  hash(const key_type&)
///   void prefetch_home(u64 h)                                    stage A
///   bool probe_home(const key_type&, u64 h, std::optional<u64>&) stage B:
///        true and the value written when level 1 answers
///   void prefetch_group_tags(u64 h)                              stage B
///   u32  prefetch_candidates(u64 h)                              stage C:
///        returns the number of candidate cells prefetched
///   std::optional<u64> probe_group(const key_type&, u64 h,
///                                  u32 candidates)               stage D:
///        a key with no candidate is a miss without a second sweep
/// Writes out[i] for every keys[i]; with `misses_only`, probes and writes
/// only the keys out[] does not answer yet (a second table behind a
/// miss), still in full windows.
template <class Probe>
void staged_probe(Probe& p, std::span<const typename Probe::key_type> keys,
                  std::span<std::optional<u64>> out, bool misses_only) {
  // [0, n) live per window; left uninitialised.
  std::array<usize, kStagedWindow> index;  // batch index of window entry w
  std::array<u64, kStagedWindow> hashes;
  std::array<u8, kStagedWindow> queued;  // window entries level 1 left open
  std::array<u32, kStagedWindow> candidates;  // stage C's count, per queued entry
  for (usize next = 0; next < keys.size();) {
    usize n = 0;
    for (; next < keys.size() && n < kStagedWindow; ++next) {
      if (misses_only && out[next]) continue;
      index[n] = next;
      hashes[n] = p.hash(keys[next]);
      p.prefetch_home(hashes[n]);
      ++n;
    }
    usize nq = 0;
    for (usize w = 0; w < n; ++w) {
      if (p.probe_home(keys[index[w]], hashes[w], out[index[w]])) continue;
      p.prefetch_group_tags(hashes[w]);
      queued[nq++] = static_cast<u8>(w);
    }
    for (usize q = 0; q < nq; ++q) candidates[q] = p.prefetch_candidates(hashes[queued[q]]);
    for (usize q = 0; q < nq; ++q) {
      const usize w = queued[q];
      out[index[w]] = p.probe_group(keys[index[w]], hashes[w], candidates[q]);
    }
  }
}

}  // namespace gh::hash
