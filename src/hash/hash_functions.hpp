// Seeded 64-bit hash functions used by all schemes. The finalizer is the
// MurmurHash3 fmix64 avalanche (full bit diffusion, passes the avalanche
// property test in tests/hash/hash_functions_test.cpp); schemes needing
// two independent functions (PFHT, path hashing) instantiate two seeds.
#pragma once

#include <string_view>

#include "util/types.hpp"

namespace gh::hash {

constexpr u64 fmix64(u64 k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

class SeededHash {
 public:
  explicit constexpr SeededHash(u64 seed = 0x5bd1e995u) : seed_(seed) {}

  [[nodiscard]] constexpr u64 operator()(u64 key) const { return fmix64(key + seed_); }

  [[nodiscard]] constexpr u64 operator()(const Key128& key) const {
    // Mix both halves; constants from xxh3's stripe accumulation.
    const u64 a = fmix64(key.lo + seed_);
    const u64 b = fmix64(key.hi + (seed_ ^ 0x9e3779b97f4a7c15ull));
    return fmix64(a ^ (b * 0x165667919e3779f9ull));
  }

  [[nodiscard]] constexpr u64 seed() const { return seed_; }

 private:
  u64 seed_;
};

/// Default seeds: h1 for single-function schemes; h1+h2 for two-function
/// schemes. Fixed defaults keep runs reproducible; tables can be created
/// with any seed.
inline constexpr u64 kDefaultSeed1 = 0x8f14e45fceea167aull;
inline constexpr u64 kDefaultSeed2 = 0x45d9f3b3335b369ull;

/// Shard routing, shared by the concurrent wrappers and the shard
/// service so a key's shard is the same in both. Independent of the
/// in-table hash: a distinct seed for integer keys, FNV-1a over the
/// bytes for string keys (whose table index is an MD5 fingerprint).
inline constexpr u64 kShardSeed = 0xc3a5c85c97cb3127ull;

[[nodiscard]] constexpr u64 shard_hash(u64 key) { return SeededHash(kShardSeed)(key); }
[[nodiscard]] constexpr u64 shard_hash(const Key128& key) { return SeededHash(kShardSeed)(key); }
[[nodiscard]] constexpr u64 shard_hash(std::string_view key) {
  u64 h = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return fmix64(h);
}

/// The shard of `key` among `shards` (a power of two).
template <class Key>
[[nodiscard]] constexpr usize shard_of(const Key& key, usize shards) {
  return static_cast<usize>(shard_hash(key)) & (shards - 1);
}

}  // namespace gh::hash
