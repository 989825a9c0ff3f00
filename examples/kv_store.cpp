// kv_store — a memcached-flavoured persistent key-value store REPL on top
// of PersistentStringMap (the workload class that motivates the paper:
// small items, hash lookups, persistence across restarts).
//
//   ./kv_store /tmp/store.gh            # interactive
//   echo "set k 1\nget k" | ./kv_store  # scripted
//
// Commands: set <key> <value> | get <key> | del <key> | keys | stats |
//           compact | quit
// Keys are arbitrary strings (stored verbatim in the persistent arena and
// verified on every lookup); values are u64.
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/string_map.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/kv_store.gh";

  // Create only a store that does not exist: one that exists but fails
  // to open (corrupt, another format version) is left untouched.
  std::optional<gh::PersistentStringMap> store;
  try {
    if (std::filesystem::exists(path)) {
      store.emplace(gh::PersistentStringMap::open(path));
      std::cout << "# opened " << path << " with " << store->size() << " entries"
                << (store->recovered_on_open() ? " (recovered after crash)" : "") << "\n";
    } else {
      store.emplace(
          gh::PersistentStringMap::create(path, {.map = {.initial_cells = 1 << 12}}));
      std::cout << "# created " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "kv_store: cannot open " << path << ": " << e.what() << "\n";
    return 1;
  }
  gh::PersistentStringMap& map = *store;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "set") {
      std::string key;
      gh::u64 value = 0;
      if (!(in >> key >> value)) {
        std::cout << "ERR usage: set <key> <u64>\n";
        continue;
      }
      map.put(key, value);
      std::cout << "STORED\n";
    } else if (cmd == "get") {
      std::string key;
      if (!(in >> key)) {
        std::cout << "ERR usage: get <key>\n";
        continue;
      }
      const auto v = map.get(key);
      if (v) {
        std::cout << "VALUE " << *v << "\n";
      } else {
        std::cout << "NOT_FOUND\n";
      }
    } else if (cmd == "del") {
      std::string key;
      if (!(in >> key)) {
        std::cout << "ERR usage: del <key>\n";
        continue;
      }
      std::cout << (map.erase(key) ? "DELETED\n" : "NOT_FOUND\n");
    } else if (cmd == "keys") {
      map.for_each([](std::string_view key, gh::u64 value) {
        std::cout << key << " -> " << value << "\n";
      });
    } else if (cmd == "stats") {
      const gh::obs::Snapshot s = map.snapshot();
      const auto arena = map.arena_usage();
      std::cout << "entries " << s.size << "\n"
                << "table_capacity " << s.capacity << "\n"
                << "arena_used " << gh::format_bytes(arena.used) << "\n"
                << "arena_live " << gh::format_bytes(arena.live) << "\n"
                << "arena_capacity " << gh::format_bytes(arena.capacity) << "\n"
                << "compactions " << s.lifecycle.compactions << "\n"
                << "recoveries " << s.lifecycle.recoveries << "\n";
    } else if (cmd == "compact") {
      map.compact();
      std::cout << "OK arena_used now " << gh::format_bytes(map.arena_usage().used)
                << "\n";
    } else {
      std::cout << "ERR unknown command '" << cmd << "'\n";
    }
  }
  map.close();
  std::cout << "# closed cleanly\n";
  return 0;
}
