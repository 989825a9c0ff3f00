// Quickstart — the 60-second tour of the GroupHashMap public API:
// create a persistent map, insert/lookup/delete, close it cleanly,
// reopen it, and inspect metrics.
//
//   ./quickstart [path]
#include <iostream>

#include "core/group_hash_map.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/quickstart.gh";

  // --- Session 1: create and populate -------------------------------------
  {
    gh::MapOptions options;
    options.initial_cells = 1 << 12;  // 4096 cells to start; grows on demand
    options.group_size = 256;         // the paper's default
    auto map = gh::GroupHashMap::create(path, options);

    for (gh::u64 user_id = 1; user_id <= 1000; ++user_id) {
      map.put(user_id, /*score=*/user_id * 17 % 1000);
    }
    map.put(42, 99999);  // put() is an upsert
    map.erase(7);

    std::cout << "session 1: " << map.size() << " entries, load factor "
              << gh::format_double(map.load_factor(), 3) << "\n";
    std::cout << "user 42 -> " << *map.get(42) << "\n";
    std::cout << "user 7  -> " << (map.get(7) ? "present" : "deleted") << "\n";

    const gh::obs::Snapshot m = map.snapshot();
    std::cout << "NVM traffic: " << m.persist.lines_flushed << " cacheline flushes, "
              << gh::format_bytes(m.persist.bytes_written) << " written, "
              << m.lifecycle.expansions << " expansions\n";

    map.close();  // marks the file clean
  }

  // --- Session 2: reopen --------------------------------------------------
  {
    auto map = gh::GroupHashMap::open(path);
    std::cout << "session 2: reopened with " << map.size() << " entries"
              << (map.recovered_on_open() ? " (after crash recovery)" : " (clean)") << "\n";
    std::cout << "user 42 -> " << *map.get(42) << " (durable)\n";
  }

  // 128-bit keys work the same way via GroupHashMapWide:
  {
    auto wide = gh::GroupHashMapWide::create_in_memory({});
    wide.put(gh::Key128{0xdeadbeef, 0xcafe}, 1);
    std::cout << "wide map: " << wide.size() << " entry\n";
  }

  std::cout << "quickstart OK\n";
  return 0;
}
