#include "core/inspect.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/map_format.hpp"
#include "nvm/direct_pm.hpp"
#include "hash/cells.hpp"
#include "nvm/region.hpp"

namespace gh {

namespace {

/// A private, writable copy of a map file's bytes.
nvm::NvmRegion private_copy(const std::string& path) {
  nvm::NvmRegion file = nvm::NvmRegion::open_file(path);
  nvm::NvmRegion copy = nvm::NvmRegion::create_anonymous(file.size());
  std::memcpy(copy.data(), file.data(), file.size());
  return copy;
}

/// Scan the table of a map file image; groups below `retired` are
/// cleared first, keeping the count word, as the map's open does.
template <class Cell>
TableInspection scan_table(nvm::NvmRegion& image, u64 retired) {
  using Table = hash::GroupHashTable<Cell, nvm::DirectPM>;
  const auto* sb = reinterpret_cast<const map_format::Superblock*>(image.data());
  if (sb->table_offset > image.size() || sb->table_bytes > image.size() - sb->table_offset) {
    throw std::runtime_error("superblock table bounds exceed the file");
  }
  nvm::DirectPM pm(nvm::PersistConfig::counting_only());
  Table table = Table::attach(pm, image.bytes().subspan(sb->table_offset, sb->table_bytes),
                              hash::CountMode::kRecoveryOnly, hash::CommitOrder::kSameLine);
  const u64 count = table.count();
  for (u64 g = 0; g < std::min(retired, table.num_groups()); ++g) table.clear_group(g);
  table.set_recovered_count(count);
  return inspect(table);
}

TableInspection scan_image(nvm::NvmRegion& image, u64 cell_size, u64 retired) {
  return cell_size == sizeof(hash::Cell16) ? scan_table<hash::Cell16>(image, retired)
                                           : scan_table<hash::Cell32>(image, retired);
}

}  // namespace

MapFileInfo read_map_file_info(const std::string& path) {
  nvm::NvmRegion region = nvm::NvmRegion::open_file(path);
  if (region.size() < map_format::kTableOffset + 64) {
    throw std::runtime_error("file too small to be a GroupHashMap: " + path);
  }
  const auto* sb = reinterpret_cast<const map_format::Superblock*>(region.data());
  if (sb->magic != map_format::kMagic) {
    throw std::runtime_error("not a GroupHashMap file: " + path);
  }
  MapFileInfo info;
  info.version = sb->version;
  info.clean = sb->state == map_format::kStateClean;
  info.cell_size = sb->cell_size;
  info.table_offset = sb->table_offset;
  info.table_bytes = sb->table_bytes;
  info.group_size = sb->group_size;
  info.superblock_crc_ok = sb->crc == map_format::superblock_crc(*sb);
  info.migration_word_ok = map_format::migration_word_valid(sb->migration);
  info.migration_armed =
      info.migration_word_ok && map_format::migration_word_active(sb->migration);
  if (info.migration_armed) {
    info.migration_cursor = map_format::migration_word_cursor(sb->migration);
  }
  // The table header layout is cell-size independent; Cell16's suffices
  // for the geometry fields.
  using Table = hash::GroupHashTable<hash::Cell16, nvm::DirectPM>;
  const auto* th = reinterpret_cast<const Table::Header*>(region.data() + sb->table_offset);
  info.level_cells = th->level_cells;
  info.count = th->count;
  info.group_checksums = (th->flags & Table::kFlagGroupCrc) != 0;
  return info;
}

MapFileInspection inspect_map_file(const std::string& path) {
  MapFileInspection r;
  r.info = read_map_file_info(path);
  nvm::NvmRegion image = private_copy(path);
  r.table = scan_image(image, r.info.cell_size, r.info.migration_cursor);
  if (r.info.migration_armed) {
    r.target_path = path + ".migrate";
    std::error_code ec;
    if (std::filesystem::exists(r.target_path, ec)) {
      nvm::NvmRegion target = private_copy(r.target_path);
      r.target = scan_image(target, read_map_file_info(r.target_path).cell_size, 0);
    }
  }
  return r;
}

}  // namespace gh
