// Reproduces the paper's Figure 1: the three inconsistency cases of a
// NAIVE hash-table insertion (write key-value pair, then increment count,
// with no atomic commit word and no careful ordering), demonstrated on
// the crash simulator — and the proof that group hashing's protocol
// closes all three.
//
//   Case 1: crash after the KV write, before the count increment
//           -> count too small / no way to tell the cell is committed.
//   Case 2: count reaches NVM first (write reordering / eviction), crash
//           before the KV pair lands -> count too large, phantom item.
//   Case 3: crash mid-KV-write -> torn value visible as a live item.
#include <gtest/gtest.h>

#include <cstring>

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"

namespace gh::hash {
namespace {

using nvm::CrashMode;
using nvm::ShadowPM;
using nvm::SimulatedCrash;

/// The naive table of Figure 1: cells are (key, value) with key!=0
/// meaning occupied; insert writes the pair, then increments count.
/// No commit word, no persist ordering discipline.
struct NaiveTable {
  struct NaiveCell {
    u64 key;    // 0 = empty (Figure 1's example keys are non-zero)
    u64 value;
  };

  explicit NaiveTable(std::span<std::byte> mem)
      : count(reinterpret_cast<u64*>(mem.data())),
        cells(reinterpret_cast<NaiveCell*>(mem.data() + 64)),
        ncells((mem.size() - 64) / sizeof(NaiveCell)) {}

  void naive_insert(ShadowPM& pm, u64 key, u64 value) {
    // Figure 1 pseudo-code: hash[index].key = key; hash[index].value =
    // value; count++;  — persists happen "eventually" (one lazy flush at
    // the end models a writeback that may or may not have occurred).
    NaiveCell& c = cells[key % ncells];
    pm.store_u64(&c.key, key);
    pm.store_u64(&c.value, value);
    pm.store_u64(count, *count + 1);
  }

  u64* count;
  NaiveCell* cells;
  usize ncells;
};

class Figure1 : public ::testing::Test {
 protected:
  Figure1()
      : region_(nvm::NvmRegion::create_anonymous(4096)),
        mem_(region_.bytes().first(4096)) {}

  nvm::NvmRegion region_;
  std::span<std::byte> mem_;
};

TEST_F(Figure1, Case1And2_CountDisagreesWithCells) {
  // The naive insert's three stores sit dirty in cache; a crash persists
  // an ARBITRARY subset (cache eviction is not ordered). Enumerate crash
  // points and eviction seeds: the naive table reaches states where count
  // disagrees with the number of visible items — both too small (case 1)
  // and too large (case 2).
  bool saw_count_too_small = false, saw_count_too_large = false;
  // crash_at == 3 means all three stores executed (no exception fires) but
  // the "crash" is the materialisation: any dirty subset may be durable —
  // including the count without the key (Figure 1's reordering, case 2).
  for (u64 crash_at = 0; crash_at < 4; ++crash_at) {
    for (u64 seed = 0; seed < 16; ++seed) {
      std::fill(mem_.begin(), mem_.end(), std::byte{0});
      ShadowPM pm(mem_);
      NaiveTable table(mem_);
      pm.crash_at_event(crash_at);
      try {
        table.naive_insert(pm, 21, 0x486173685461626cull);  // (21,"HashTabl")
      } catch (const SimulatedCrash&) {
      }
      const auto img = pm.materialize_crash_image(CrashMode::kRandomEviction, seed);
      u64 img_count;
      std::memcpy(&img_count, img.data(), 8);
      u64 img_key;
      std::memcpy(&img_key, img.data() + 64 + (21 % table.ncells) * 16, 8);
      const u64 visible_items = img_key != 0 ? 1 : 0;
      if (img_count < visible_items) saw_count_too_small = true;   // case 1
      if (img_count > visible_items) saw_count_too_large = true;   // case 2
    }
  }
  EXPECT_TRUE(saw_count_too_small) << "Figure 1 case 1 should be reachable";
  EXPECT_TRUE(saw_count_too_large) << "Figure 1 case 2 should be reachable";
}

TEST_F(Figure1, Case3_TornValueVisibleAsLiveItem) {
  // Key persisted, value not (or vice versa): the naive layout has no way
  // to distinguish the torn cell from a committed one.
  bool saw_torn = false;
  for (u64 seed = 0; seed < 32 && !saw_torn; ++seed) {
    std::fill(mem_.begin(), mem_.end(), std::byte{0});
    ShadowPM pm(mem_);
    NaiveTable table(mem_);
    pm.crash_at_event(2);  // after key+value stores, before count
    try {
      table.naive_insert(pm, 21, 0x486173685461626cull);
    } catch (const SimulatedCrash&) {
    }
    const auto img = pm.materialize_crash_image(CrashMode::kRandomEviction, seed);
    u64 img_key, img_value;
    std::memcpy(&img_key, img.data() + 64 + (21 % table.ncells) * 16, 8);
    std::memcpy(&img_value, img.data() + 64 + (21 % table.ncells) * 16 + 8, 8);
    if (img_key == 21 && img_value == 0) saw_torn = true;  // looks live, value gone
  }
  EXPECT_TRUE(saw_torn) << "Figure 1 case 3 should be reachable";
}

TEST_F(Figure1, GroupHashingClosesAllThreeCases) {
  // The same adversarial enumeration against the real protocol: recovery
  // always restores count == visible items and never exposes a torn value.
  using Table = GroupHashTable<Cell16, ShadowPM>;
  const Table::Params params{.level_cells = 64, .group_size = 16};
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(Table::required_bytes(params));
  auto mem = region.bytes().first(Table::required_bytes(params));

  for (u64 crash_at = 0; crash_at < 8; ++crash_at) {
    for (u64 seed = 0; seed < 8; ++seed) {
      std::fill(mem.begin(), mem.end(), std::byte{0});
      ShadowPM pm(mem);
      Table table(pm, mem, params, /*format=*/true);
      const u64 format_events = pm.event_count();
      pm.crash_at_event(format_events + crash_at);
      bool crashed = false;
      try {
        table.insert(21, 0x486173685461626cull);
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      pm.crash_at_event(ShadowPM::no_crash());
      const auto img = pm.materialize_crash_image(CrashMode::kRandomEviction, seed);
      pm.reset_to_image(img);
      Table rebooted = Table::attach(pm, mem);
      const auto report = rebooted.recover();
      const auto v = rebooted.find(21);
      // No case 1/2: count always equals visible items.
      EXPECT_EQ(rebooted.count(), v.has_value() ? 1u : 0u)
          << "crash_at=" << crash_at << " seed=" << seed;
      EXPECT_EQ(report.recovered_count, rebooted.count());
      // No case 3: a visible item always carries its exact value.
      if (v) {
        EXPECT_EQ(*v, 0x486173685461626cull);
      }
      (void)crashed;
    }
  }
}

}  // namespace
}  // namespace gh::hash
