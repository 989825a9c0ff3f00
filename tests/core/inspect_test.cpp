#include "core/inspect.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/group_hash_map.hpp"
#include "core/map_format.hpp"
#include "hash/cells.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"

namespace gh {
namespace {

using Table = hash::GroupHashTable<hash::Cell16, nvm::DirectPM>;

class InspectTest : public ::testing::Test {
 protected:
  Table& init(u64 level_cells, u32 group_size) {
    const Table::Params p{.level_cells = level_cells, .group_size = group_size};
    region_ = nvm::NvmRegion::create_anonymous(Table::required_bytes(p));
    table_.emplace(pm_, region_.bytes().first(Table::required_bytes(p)), p, true);
    return *table_;
  }

  nvm::NvmRegion region_;
  nvm::DirectPM pm_{nvm::PersistConfig::counting_only()};
  std::optional<Table> table_;
};

TEST_F(InspectTest, EmptyTableIsClean) {
  auto& t = init(256, 16);
  const TableInspection r = inspect(t);
  EXPECT_EQ(r.capacity, 512u);
  EXPECT_EQ(r.scanned_occupied, 0u);
  EXPECT_EQ(r.torn_cells, 0u);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.group_level2_occupancy.size(), 16u);
  EXPECT_EQ(r.full_groups, 0u);
}

TEST_F(InspectTest, OccupancySplitsAcrossLevels) {
  auto& t = init(256, 16);
  for (u64 k = 1; k <= 120; ++k) ASSERT_TRUE(t.insert(k, k));
  const TableInspection r = inspect(t);
  EXPECT_EQ(r.scanned_occupied, 120u);
  EXPECT_EQ(r.level1_occupied + r.level2_occupied, 120u);
  EXPECT_GT(r.level1_occupied, 0u);
  EXPECT_TRUE(r.count_consistent());
  u64 group_sum = 0;
  for (const u64 g : r.group_level2_occupancy) group_sum += g;
  EXPECT_EQ(group_sum, r.level2_occupied);
  EXPECT_DOUBLE_EQ(r.load_factor(), 120.0 / 512.0);
}

TEST_F(InspectTest, DetectsTornCellsAndStaleCount) {
  auto& t = init(256, 16);
  t.insert(1, 1);
  // Forge a torn payload and a stale count directly.
  auto* cells = reinterpret_cast<hash::Cell16*>(region_.data() + 64);
  usize forged = 0;
  for (usize i = 0; i < 512 && forged < 2; ++i) {
    if (!cells[i].occupied() && !cells[i].payload_dirty()) {
      cells[i].value = 0xbad;
      ++forged;
    }
  }
  const TableInspection before = inspect(t);
  EXPECT_EQ(before.torn_cells, 2u);
  EXPECT_FALSE(before.clean());
  // Recovery repairs both findings.
  t.recover();
  const TableInspection after = inspect(t);
  EXPECT_EQ(after.torn_cells, 0u);
  EXPECT_TRUE(after.clean());
}

TEST_F(InspectTest, FullGroupsAreReported) {
  auto& t = init(16, 8);  // 2 groups of 8
  const hash::SeededHash h(t.seed());
  // Fill group 0's level-2 cells completely: 2 keys per level-1 slot of
  // the first group.
  std::vector<int> filled(8, 0);
  for (u64 k = 1; t.count() < 16; ++k) {
    const u64 s = h(k) & 15;
    if (s < 8 && filled[s] < 2) {
      filled[s]++;
      ASSERT_TRUE(t.insert(k, k));
    }
  }
  const TableInspection r = inspect(t);
  EXPECT_EQ(r.full_groups, 1u);
  EXPECT_EQ(r.max_group_occupancy, 8u);
}

TEST(MapFileInfoTest, ReadsSuperblockWithoutRecovery) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gh_inspect_info.gh").string();
  std::filesystem::remove(path);
  {
    auto map = GroupHashMap::create(path, {.initial_cells = 1024, .group_size = 64});
    for (u64 k = 1; k <= 10; ++k) map.put(k, k);
    // Dirty state: inspect while open.
    const MapFileInfo dirty = read_map_file_info(path);
    EXPECT_FALSE(dirty.clean);
    EXPECT_EQ(dirty.cell_size, 16u);
    EXPECT_EQ(dirty.group_size, 64u);
    EXPECT_EQ(dirty.level_cells, 512u);
    // The count word is recovery-derived: a put stores the count in DRAM
    // only, so an open file holds the value last sealed — here the 0
    // create() formatted.
    EXPECT_EQ(dirty.count, 0u);
    map.abandon();  // crash: the file stays dirty
  }
  {
    // A dirty reopen recomputes the count (Algorithm 4); the file's word
    // is only guaranteed once close() seals it.
    auto map = GroupHashMap::open(path);
    EXPECT_TRUE(map.recovered_on_open());
    EXPECT_EQ(map.open_recovery_report().recovered_count, 10u);
    EXPECT_EQ(map.size(), 10u);
    map.close();
  }
  // close() seals the count before it marks the file clean.
  const MapFileInfo clean = read_map_file_info(path);
  EXPECT_TRUE(clean.clean);
  EXPECT_EQ(clean.count, 10u);
  EXPECT_EQ(clean.version, map_format::kVersion);
  EXPECT_TRUE(clean.superblock_crc_ok);
  std::filesystem::remove(path);
}

TEST(MapFileInfoTest, RejectsNonMapFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gh_inspect_junk.gh").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::string junk(8192, 'z');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  EXPECT_THROW(read_map_file_info(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh
