#include "core/inspect.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/group_hash_map.hpp"
#include "core/map_format.hpp"
#include "hash/cells.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "support/temp_path.hpp"

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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::in);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(MapFileInfoTest, ReadsSuperblockWithoutRecovery) {
  const std::string path = test::temp_path("gh_inspect_info.gh");
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
  const std::string path = test::temp_path("gh_inspect_junk.gh");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::string junk(8192, 'z');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  EXPECT_THROW(read_map_file_info(path), std::runtime_error);
  std::filesystem::remove(path);
}

/// A cleanly closed split image: 512 cells in groups of 8, filled until a
/// resize arms, then 10 of its 32 source groups drained by hand (no
/// writer helps: migrate_groups_per_op = 0). `before_drain` receives the
/// file's bytes just before the drain. Returns the map's size().
u64 make_split_image(const std::string& path, std::string* before_drain = nullptr) {
  auto map = GroupHashMap::create(path, {.initial_cells = 512,
                                         .group_size = 8,
                                         .flush_latency_ns = 0,
                                         .migrate_groups_per_op = 0});
  for (u64 i = 0; !map.migration_active(); ++i) map.put(3 * i + 1, i);
  if (before_drain != nullptr) *before_drain = read_file(path);
  EXPECT_EQ(map.migrate_step(10), 10u);
  EXPECT_EQ(map.migration_cursor(), 10u);
  const u64 size = map.size();
  map.close();
  return size;
}

TEST(MapFileInfoTest, SplitImageCountsBothTablesAndNamesTheResize) {
  const std::string path = test::temp_path("gh_inspect_split.gh");
  const u64 size = make_split_image(path);
  EXPECT_EQ(size, 316u);

  const MapFileInspection r = inspect_map_file(path);
  EXPECT_TRUE(r.info.clean);
  EXPECT_TRUE(r.info.migration_word_ok);
  EXPECT_TRUE(r.info.migration_armed);
  EXPECT_EQ(r.info.migration_cursor, 10u);
  EXPECT_EQ(r.target_path, path + ".migrate");
  ASSERT_TRUE(r.target.has_value());
  EXPECT_GT(r.target->scanned_occupied, 0u);
  EXPECT_TRUE(r.table.count_consistent());
  EXPECT_TRUE(r.target->count_consistent());
  EXPECT_EQ(r.items(), size);
  EXPECT_TRUE(r.clean());

  // The report is what the next open serves.
  auto map = GroupHashMap::open(path);
  EXPECT_EQ(map.size(), r.items());
  map.close();
}

TEST(MapFileInfoTest, SplitImageClearsRetiredGroupsOnAPrivateCopy) {
  // Put the drained groups' pre-retire cells back into the file, as a
  // crash can leave them: the open clears them again, so the scan must
  // too — on a copy, leaving the file untouched.
  const std::string path = test::temp_path("gh_inspect_split_stale.gh");
  std::string before;
  const u64 size = make_split_image(path, &before);
  std::string image = read_file(path);
  const MapFileInfo info = read_map_file_info(path);
  const usize level_bytes = info.level_cells * sizeof(hash::Cell16);
  const usize drained_bytes = info.migration_cursor * info.group_size * sizeof(hash::Cell16);
  for (const usize level : {usize{0}, usize{1}}) {
    const usize at = info.table_offset + sizeof(Table::Header) + level * level_bytes;
    image.replace(at, drained_bytes, before, at, drained_bytes);
  }
  ASSERT_NE(image, read_file(path)) << "the drained groups held no cells";
  write_file(path, image);

  const MapFileInspection r = inspect_map_file(path);
  EXPECT_EQ(r.items(), size);
  EXPECT_TRUE(r.table.count_consistent());
  EXPECT_EQ(r.table.torn_cells, 0u);
  EXPECT_EQ(read_file(path), image) << "inspect_map_file wrote to the file";
}

}  // namespace
}  // namespace gh
