// gh_fsck — integrity checker / repair tool for GroupHashMap files,
// the operational face of the paper's recovery story (§3.5).
//
//   ./gh_fsck <file.gh>            # read-only report
//   ./gh_fsck <file.gh> --repair   # run Algorithm-4 recovery, mark clean
//
// The read-only path deliberately bypasses GroupHashMap::open (which
// would auto-recover a dirty file) and scans private copies of the raw
// tables instead: mid-resize, the file's table with its retired groups
// cleared plus the `.migrate` target.
#include <iostream>

#include "core/group_hash_map.hpp"
#include "core/inspect.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

void print_table(const gh::TableInspection& scan, gh::u64 cell_size) {
  std::cout << "table geometry:   " << gh::format_count(scan.capacity) << " cells ("
            << gh::format_count(scan.capacity / 2) << " per level), group size "
            << scan.group_size << ", " << cell_size << "B cells\n"
            << "occupancy:        " << gh::format_count(scan.scanned_occupied) << " items ("
            << gh::format_double(scan.load_factor(), 3) << " load factor)\n"
            << "  level 1:        " << gh::format_count(scan.level1_occupied) << "\n"
            << "  level 2:        " << gh::format_count(scan.level2_occupied) << "\n"
            << "fullest group:    " << scan.max_group_occupancy << "/" << scan.group_size
            << " level-2 cells (" << scan.full_groups << " groups full)\n"
            << "count field:      " << gh::format_count(scan.count_field)
            << (scan.count_consistent() ? " (consistent)" : " (STALE — needs recovery)")
            << "\n"
            << "torn cells:       " << scan.torn_cells
            << (scan.torn_cells ? " (residual payloads — needs recovery)" : "") << "\n";
}

int report(const std::string& path) {
  const gh::MapFileInspection r = gh::inspect_map_file(path);
  const gh::MapFileInfo& info = r.info;
  if (!info.migration_word_ok) {
    std::cout << "resize:           cursor word CORRUPT\n";
  } else if (info.migration_armed) {
    const gh::u64 groups = info.level_cells / info.group_size;
    std::cout << "resize:           armed, " << info.migration_cursor << " of " << groups
              << " groups drained into " << r.target_path
              << (r.target ? "" : " (MISSING)") << "\n"
              << "                  (groups below the cursor are retired; cleared "
                 "before the scan, as an open clears them)\n";
  }
  print_table(r.table, info.cell_size);
  if (r.target) {
    std::cout << "\nresize target " << r.target_path << ":\n";
    print_table(*r.target, info.cell_size);
    std::cout << "\nitems (both tables): " << gh::format_count(r.items()) << "\n";
  }

  if (!r.clean()) {
    std::cout << "\nverdict: DIRTY — run with --repair to recover\n";
    return 1;
  }
  std::cout << (info.migration_armed ? "\nverdict: clean (resize in progress; the next open "
                                       "resumes it)\n"
                                     : "\nverdict: clean\n");
  return 0;
}

template <class Map>
int repair(const std::string& path) {
  auto map = Map::open(path);  // recovers if dirty
  std::cout << (map.recovered_on_open() ? "recovery performed" : "file was already clean")
            << "; " << gh::format_count(map.size()) << " items\n";
  map.close();  // marks clean
  std::cout << "marked clean\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const gh::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::cerr << "usage: gh_fsck <file.gh> [--repair]\n";
    return 2;
  }
  const std::string path = cli.positional()[0];

  try {
    const gh::MapFileInfo info = gh::read_map_file_info(path);
    std::cout << "GroupHashMap file: " << path << "\n"
              << "format version:   " << info.version << "\n"
              << "shutdown state:   " << (info.clean ? "clean" : "DIRTY (crash?)") << "\n";

    if (cli.has("repair")) {
      return info.cell_size == 16 ? repair<gh::GroupHashMap>(path)
                                  : repair<gh::GroupHashMapWide>(path);
    }
    return report(path);
  } catch (const std::exception& e) {
    std::cerr << "gh_fsck: " << e.what() << "\n";
    return 2;
  }
}
