#include "nvm/shadow_pm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace gh::nvm {
namespace {

class ShadowPMTest : public ::testing::Test {
 protected:
  // Cacheline-aligned so the word<->line geometry in the tests below is
  // exact (word 0..7 share line 0, word 8 starts line 1, ...).
  struct alignas(kCachelineSize) AlignedBuf {
    std::byte bytes[1024] = {};
  };

  ShadowPMTest() : pm_({live_.bytes, sizeof(live_.bytes)}) {}

  std::byte* data() { return live_.bytes; }
  u64* word(usize i) { return reinterpret_cast<u64*>(live_.bytes) + i; }
  u64 shadow_word(const std::vector<std::byte>& img, usize i) {
    u64 v;
    std::memcpy(&v, img.data() + i * 8, 8);
    return v;
  }

  AlignedBuf live_;
  ShadowPM pm_;
};

TEST_F(ShadowPMTest, UnpersistedStoreDoesNotReachShadow) {
  pm_.store_u64(word(0), 42);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  EXPECT_EQ(shadow_word(img, 0), 0u);
  EXPECT_EQ(pm_.dirty_word_count(), 1u);
}

TEST_F(ShadowPMTest, PersistedStoreReachesShadow) {
  pm_.store_u64(word(0), 42);
  pm_.persist(word(0), 8);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  EXPECT_EQ(shadow_word(img, 0), 42u);
  EXPECT_EQ(pm_.dirty_word_count(), 0u);
}

TEST_F(ShadowPMTest, PersistCoversWholeCacheline) {
  // Two words in the same cacheline: flushing one persists both, exactly
  // like real clflush.
  pm_.store_u64(word(0), 1);
  pm_.store_u64(word(1), 2);
  pm_.persist(word(0), 8);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  EXPECT_EQ(shadow_word(img, 0), 1u);
  EXPECT_EQ(shadow_word(img, 1), 2u);
}

TEST_F(ShadowPMTest, DistinctCachelinesPersistIndependently) {
  pm_.store_u64(word(0), 1);
  pm_.store_u64(word(8), 2);  // next cacheline (8 words * 8 bytes = 64)
  pm_.persist(word(0), 8);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  EXPECT_EQ(shadow_word(img, 0), 1u);
  EXPECT_EQ(shadow_word(img, 8), 0u);
}

TEST_F(ShadowPMTest, AllEvictedImageSeesEverything) {
  pm_.store_u64(word(0), 1);
  pm_.store_u64(word(20), 2);
  const auto img = pm_.materialize_crash_image(CrashMode::kAllEvicted);
  EXPECT_EQ(shadow_word(img, 0), 1u);
  EXPECT_EQ(shadow_word(img, 20), 2u);
}

TEST_F(ShadowPMTest, RandomEvictionIsSeedDeterministicAndPartial) {
  for (usize i = 0; i < 64; ++i) pm_.store_u64(word(i), i + 1);
  const auto a = pm_.materialize_crash_image(CrashMode::kRandomEviction, 7);
  const auto b = pm_.materialize_crash_image(CrashMode::kRandomEviction, 7);
  EXPECT_EQ(a, b);
  // With 64 dirty words, both "all survived" and "none survived" are
  // astronomically unlikely for a fair coin.
  usize survived = 0;
  for (usize i = 0; i < 64; ++i) {
    if (shadow_word(a, i) != 0) ++survived;
  }
  EXPECT_GT(survived, 0u);
  EXPECT_LT(survived, 64u);
  // A different seed gives a different subset (whp).
  const auto c = pm_.materialize_crash_image(CrashMode::kRandomEviction, 8);
  EXPECT_NE(a, c);
}

TEST_F(ShadowPMTest, CopyAndFillTrackDirtiness) {
  const unsigned char src[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  pm_.copy(data() + 64, src, 16);
  EXPECT_EQ(pm_.dirty_word_count(), 2u);
  pm_.fill(data() + 128, 0xff, 64);
  EXPECT_EQ(pm_.dirty_word_count(), 2u + 8u);
  pm_.persist(data() + 64, 16);
  EXPECT_EQ(pm_.dirty_word_count(), 8u);
}

TEST_F(ShadowPMTest, CrashThrowsAtScheduledEvent) {
  pm_.store_u64(word(0), 1);  // event 0
  pm_.crash_at_event(2);
  pm_.store_u64(word(1), 2);  // event 1
  EXPECT_THROW(pm_.store_u64(word(2), 3), SimulatedCrash);
  // The crashed store must not have executed.
  EXPECT_EQ(*word(2), 0u);
}

TEST_F(ShadowPMTest, EventCountCoversAllOperations) {
  pm_.store_u64(word(0), 1);
  pm_.atomic_store_u64(word(1), 2);
  pm_.persist(word(0), 16);
  pm_.fence();
  const unsigned char b = 1;
  pm_.copy(data() + 256, &b, 1);
  pm_.fill(data() + 320, 0, 8);
  EXPECT_EQ(pm_.event_count(), 6u);
}

TEST_F(ShadowPMTest, ResetToImageClearsDirtyState) {
  pm_.store_u64(word(0), 42);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  pm_.reset_to_image(img);
  EXPECT_EQ(*word(0), 0u);  // live now matches the pre-store durable state
  EXPECT_EQ(pm_.dirty_word_count(), 0u);
  // And subsequent persists work off the new baseline.
  pm_.store_u64(word(0), 9);
  pm_.persist(word(0), 8);
  const auto img2 = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  EXPECT_EQ(shadow_word(img2, 0), 9u);
}

TEST_F(ShadowPMTest, StatsMirrorTraffic) {
  pm_.store_u64(word(0), 1);
  pm_.atomic_store_u64(word(1), 2);
  pm_.persist(word(0), 8);
  EXPECT_EQ(pm_.stats().stores, 1u);
  EXPECT_EQ(pm_.stats().atomic_stores, 1u);
  EXPECT_EQ(pm_.stats().persist_calls, 1u);
  EXPECT_GE(pm_.stats().lines_flushed, 1u);
}

// --- kLinePrefix: each line keeps a program-order prefix of its stores ---

TEST_F(ShadowPMTest, LinePrefixKeepsOnlyProgramOrderPrefixes) {
  // Stores A, B, C to one line, in the order C lands between A and B in
  // address: a prefix is about store order, not address order.
  pm_.store_u64(word(0), 0xa);
  pm_.store_u64(word(2), 0xb);
  pm_.store_u64(word(1), 0xc);
  bool seen[4] = {};
  for (u64 seed = 0; seed < 64; ++seed) {
    const auto img = pm_.materialize_crash_image(CrashMode::kLinePrefix, seed);
    const bool a = shadow_word(img, 0) == 0xa;
    const bool b = shadow_word(img, 2) == 0xb;
    const bool c = shadow_word(img, 1) == 0xc;
    const int kept = a + b + c;
    ASSERT_TRUE(kept == 0 || (kept == 1 && a) || (kept == 2 && a && b) || kept == 3)
        << "seed " << seed << ": not a prefix of A, B, C";
    seen[kept] = true;
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(seen[k]) << "prefix of length " << k << " never drawn";
  }
}

TEST_F(ShadowPMTest, LinePrefixFencedFlushIsDurable) {
  pm_.store_u64(word(0), 1);
  pm_.flush(word(0), 8);
  // Unfenced, the flush guarantees nothing: some image loses the store.
  bool lost = false;
  for (u64 seed = 0; seed < 32; ++seed) {
    lost |= shadow_word(pm_.materialize_crash_image(CrashMode::kLinePrefix, seed), 0) == 0;
  }
  EXPECT_TRUE(lost);
  pm_.fence();
  pm_.store_u64(word(1), 2);  // after the fence: still a free prefix
  bool dropped_later = false;
  for (u64 seed = 0; seed < 32; ++seed) {
    const auto img = pm_.materialize_crash_image(CrashMode::kLinePrefix, seed);
    ASSERT_EQ(shadow_word(img, 0), 1u) << "seed " << seed;
    dropped_later |= shadow_word(img, 1) == 0;
  }
  EXPECT_TRUE(dropped_later);
}

TEST_F(ShadowPMTest, LinePrefixLinesAreIndependent) {
  pm_.store_u64(word(0), 1);  // line 0
  pm_.store_u64(word(8), 2);  // line 1, stored after line 0
  bool only_second = false;
  bool only_first = false;
  for (u64 seed = 0; seed < 64; ++seed) {
    const auto img = pm_.materialize_crash_image(CrashMode::kLinePrefix, seed);
    only_first |= shadow_word(img, 0) == 1 && shadow_word(img, 8) == 0;
    only_second |= shadow_word(img, 0) == 0 && shadow_word(img, 8) == 2;
  }
  EXPECT_TRUE(only_first);
  EXPECT_TRUE(only_second) << "a later line's store must be able to persist alone";
}

TEST_F(ShadowPMTest, LinePrefixExtremesMatchTheOtherModes) {
  pm_.store_u64(word(0), 1);
  pm_.store_u64(word(1), 2);
  pm_.store_u64(word(9), 3);
  pm_.persist(word(9), 8);  // line 1 durable, its log gone
  pm_.store_u64(word(3), 4);
  const auto none = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  const auto all = pm_.materialize_crash_image(CrashMode::kAllEvicted);
  bool saw_none = false;
  bool saw_all = false;
  for (u64 seed = 0; seed < 64; ++seed) {
    const auto img = pm_.materialize_crash_image(CrashMode::kLinePrefix, seed);
    EXPECT_EQ(shadow_word(img, 9), 3u);
    saw_none |= img == none;
    saw_all |= img == all;
  }
  EXPECT_TRUE(saw_none);
  EXPECT_TRUE(saw_all);
}

TEST_F(ShadowPMTest, ResetToImageClearsLineLogs) {
  pm_.store_u64(word(0), 42);
  pm_.store_u64(word(8), 43);
  const auto img = pm_.materialize_crash_image(CrashMode::kNothingEvicted);
  pm_.reset_to_image(img);
  for (u64 seed = 0; seed < 16; ++seed) {
    EXPECT_EQ(pm_.materialize_crash_image(CrashMode::kLinePrefix, seed), img)
        << "a store issued before the reboot replayed into seed " << seed;
  }
}

}  // namespace
}  // namespace gh::nvm
