#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace gh {
namespace {

// Known-answer vectors from RFC 3720 (iSCSI, CRC32C appendix B.4) plus
// the classic "123456789" check value. These pin the polynomial and the
// bit order — a wrong table or a wrong reflection fails all of them.
TEST(Crc32c, Rfc3720Vectors) {
  std::array<unsigned char, 32> buf{};
  buf.fill(0x00);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x8a9136aau);
  buf.fill(0xff);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x62a8ab43u);
  for (usize i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x46dd794eu);
  for (usize i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(31 - i);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x113fdb5cu);
}

TEST(Crc32c, CheckValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xe3069283u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  Xoshiro256 rng(7);
  std::vector<unsigned char> data(1031);
  for (auto& b : data) b = static_cast<unsigned char>(rng.next_below(256));
  const u32 whole = crc32c(data.data(), data.size());
  for (const usize split : {usize{0}, usize{1}, usize{7}, usize{512}, data.size()}) {
    u32 c = crc32c_update(~0u, data.data(), split);
    c = crc32c_update(c, data.data() + split, data.size() - split);
    EXPECT_EQ(~c, whole) << "split at " << split;
  }
}

TEST(Crc32c, SeededSeparatesIdenticalPayloads) {
  const u64 payload[2] = {0x1234, 0x5678};
  // Same bytes under different seeds (cell indices) must digest apart —
  // this is what makes swapped cells detectable in the group XOR.
  EXPECT_NE(crc32c_seeded(0, payload, sizeof(payload)),
            crc32c_seeded(1, payload, sizeof(payload)));
}

TEST(Crc32c, AnyBitFlipChangesDigest) {
  std::array<unsigned char, 16> cell{};
  cell[3] = 0xab;
  const u32 base = crc32c_seeded(42, cell.data(), cell.size());
  for (usize byte = 0; byte < cell.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto flipped = cell;
      flipped[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(crc32c_seeded(42, flipped.data(), flipped.size()), base)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// The group-checksum construction: digest(group) = XOR over cells of the
// per-cell seeded CRC. Incremental maintenance (XOR out old, XOR in new)
// must land exactly where a full recomputation does.
TEST(Crc32c, XorOfCellDigestsIsIncrementallyMaintainable) {
  constexpr usize kCells = 8;
  constexpr usize kCellBytes = 16;
  Xoshiro256 rng(99);
  std::array<std::array<unsigned char, kCellBytes>, kCells> cells{};
  auto full_digest = [&] {
    u64 d = 0;
    for (usize i = 0; i < kCells; ++i) d ^= crc32c_seeded(i, cells[i].data(), kCellBytes);
    return d;
  };
  u64 digest = full_digest();
  for (int step = 0; step < 100; ++step) {
    const usize i = static_cast<usize>(rng.next_below(kCells));
    const u64 old = crc32c_seeded(i, cells[i].data(), kCellBytes);
    cells[i][rng.next_below(kCellBytes)] =
        static_cast<unsigned char>(rng.next_below(256));
    digest ^= old ^ crc32c_seeded(i, cells[i].data(), kCellBytes);
    ASSERT_EQ(digest, full_digest()) << "diverged at step " << step;
  }
}

// The run-time dispatch: the SSE4.2 path and the byte table must agree
// bit for bit, whatever the length, alignment and seed. Both paths are
// called directly, so one process covers both whatever the dispatch
// picks; GH_NO_SIMD builds and CPUs without SSE4.2 have only the table.

/// The paths crc32c_update can take on this build and CPU.
std::vector<u32 (*)(u32, const unsigned char*, usize)> crc_paths() {
  std::vector<u32 (*)(u32, const unsigned char*, usize)> paths{&detail::crc32c_update_table};
#if GH_CRC32C_HW
  if (detail::crc32c_hw_supported()) paths.push_back(&detail::crc32c_update_hw);
#endif
  return paths;
}

/// crc32c_seeded composed over one path.
template <class Path>
u32 seeded_via(Path path, u64 seed, const unsigned char* p, usize len) {
  unsigned char s[sizeof(seed)];
  std::memcpy(s, &seed, sizeof(seed));
  return ~path(path(~0u, s, sizeof(s)), p, len);
}

TEST(Crc32cDispatch, HardwareAndTableAgreeOnRandomUnalignedInputs) {
  Xoshiro256 rng(2718);
  std::vector<unsigned char> buf(128 + 8);
  const auto paths = crc_paths();
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
    const usize len = static_cast<usize>(rng.next_below(101));  // 0..100
    const usize start = static_cast<usize>(rng.next_below(8));  // unaligned starts
    const u64 seed = rng.next();
    const unsigned char* p = buf.data() + start;
    const u32 state = static_cast<u32>(rng.next());
    for (const auto path : paths) {
      ASSERT_EQ(path(state, p, len), crc32c_update(state, p, len))
          << "len " << len << " start " << start;
      ASSERT_EQ(seeded_via(path, seed, p, len), crc32c_seeded(seed, p, len))
          << "len " << len << " start " << start << " seed " << seed;
    }
  }
}

TEST(Crc32cDispatch, Rfc3720VectorsOnBothPaths) {
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  ones.fill(0xff);
  std::array<unsigned char, 32> up{};
  std::array<unsigned char, 32> down{};
  for (usize i = 0; i < up.size(); ++i) {
    up[i] = static_cast<unsigned char>(i);
    down[i] = static_cast<unsigned char>(31 - i);
  }
  const unsigned char* check = reinterpret_cast<const unsigned char*>("123456789");
  for (const auto path : crc_paths()) {
    const auto crc = [&](const unsigned char* p, usize len) { return ~path(~0u, p, len); };
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8a9136aau);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62a8ab43u);
    EXPECT_EQ(crc(up.data(), up.size()), 0x46dd794eu);
    EXPECT_EQ(crc(down.data(), down.size()), 0x113fdb5cu);
    EXPECT_EQ(crc(check, 9), 0xe3069283u);
  }
}

}  // namespace
}  // namespace gh
