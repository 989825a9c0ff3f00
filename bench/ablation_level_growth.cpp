// Ablation — level-style growth for group hashing, measured before any
// format change.
//
// Today both levels hold N cells, a key's level-1 home is h mod N and its
// level-2 group is home / G, so a grow rehashes every key. Level Hashing
// instead keeps the old top level as the new bottom level and rehashes
// only the old bottom level's keys. For group hashing that means a
// level-2 group of (h mod N2) / G, where N2 is the level-2 size: while
// N1 = N2 this is today's layout, and after the first grow the levels
// stay in a 2:1 ratio, each level-2 group then serving 2G level-1 homes.
//
// For group sizes 64..1024 and both ratios this bench fills a table with
// the raw table's placement rule (level-1 home if free, else the first
// free cell of the level-2 group) until the first key finds its home
// taken and its group full, and reports at that point:
//   * utilisation — keys held / (N1 + N2);
//   * moved_share — the share of held keys a level-style grow rehashes:
//     the level-2 residents (today's grow rehashes all of them, 1.0);
//   * l2_probes_per_get — level-2 cells an untagged in-order group scan
//     examines per get of a held key (0 for a level-1 hit, the slot's
//     position + 1 in its group otherwise). The tag filter dereferences
//     fewer, but the ratio between layouts is what this row compares.
// Each cell is the mean over --seeds hash seeds. At 1:1 the model is the
// raw GroupHashTable itself: every 1:1 fill is replayed into one and the
// first failed insert must come at the same key count.
//
// Kill criterion for the format change (ROADMAP): at G = 256 the 2:1
// layout — the steady state after the first grow — must keep utilisation
// >= 0.75 and a grow must move <= 50% of the keys.
//
// Flags: --bits=N (log2 level-2 cells, default 18), --seeds=N (default 5).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "hash/hash_functions.hpp"

namespace {

using namespace gh;

struct Fill {
  u64 held = 0;
  u64 in_level2 = 0;
  u64 level2_scanned = 0;  ///< summed over held keys
};

/// Insert keys 1, 2, … until the first level-2 group overflow.
Fill fill_to_overflow(u64 n1, u64 n2, u32 g, u64 seed) {
  const hash::SeededHash hash(seed);
  std::vector<u8> level1(n1, 0);
  std::vector<u32> group_fill(n2 / g, 0);  // no erases: the next free slot
  Fill f;
  for (u64 key = 1;; ++key) {
    const u64 h = hash(key);
    if (u8& home = level1[h & (n1 - 1)]; home == 0) {
      home = 1;
    } else {
      u32& fill = group_fill[(h & (n2 - 1)) / g];
      if (fill == g) return f;
      f.level2_scanned += ++fill;
      ++f.in_level2;
    }
    ++f.held;
  }
}

/// Keys the raw table (both levels n cells) holds at its first failed insert.
u64 raw_table_fill(u64 n, u32 g, u64 seed) {
  using Table = hash::GroupHashTable<hash::Cell16, nvm::DirectPM>;
  const Table::Params params{.level_cells = n, .group_size = g, .seed = seed};
  nvm::DirectPM pm(nvm::PersistConfig::counting_only());
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(Table::required_bytes(params));
  Table table(pm, region.bytes().first(Table::required_bytes(params)), params, true);
  u64 key = 1;
  while (table.insert(key, key)) ++key;
  return table.count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gh::bench;
  const Cli cli(argc, argv);
  const BenchEnv env = BenchEnv::from_env();
  const u32 bits = static_cast<u32>(cli.get_u64("bits", 18));
  const u64 seeds = std::max<u64>(cli.get_u64("seeds", 5), 1);
  const u64 n2 = u64{1} << bits;

  print_banner("Ablation: level-style growth (old level 1 becomes the new level 2)",
               "repo extension: Level Hashing's resize applied to group hashing", env);
  std::printf("level-2 cells 2^%u, %llu seeds per cell, keys until the first group "
              "overflow\n\n",
              bits, static_cast<unsigned long long>(seeds));

  TablePrinter t({"group_size", "ratio", "utilisation", "moved_share", "l2_probes_per_get"});
  bool model_matches_table = true;
  double util_256_2to1 = 0;
  double moved_256_2to1 = 0;
  for (const u32 g : {64u, 128u, 256u, 512u, 1024u}) {
    for (const u64 ratio : {1u, 2u}) {
      const u64 n1 = ratio * n2;
      double util = 0, moved = 0, probes = 0;
      for (u64 s = 0; s < seeds; ++s) {
        const u64 seed = env.seed + s;
        const Fill f = fill_to_overflow(n1, n2, g, seed);
        if (ratio == 1 && raw_table_fill(n2, g, seed) != f.held) model_matches_table = false;
        const double held = static_cast<double>(f.held);
        util += held / static_cast<double>(n1 + n2);
        moved += static_cast<double>(f.in_level2) / held;
        probes += static_cast<double>(f.level2_scanned) / held;
      }
      const double n = static_cast<double>(seeds);
      t.add_row({std::to_string(g), std::to_string(ratio) + ":1", format_double(util / n, 3),
                 format_double(moved / n, 3), format_double(probes / n, 2)});
      if (g == 256 && ratio == 2) {
        util_256_2to1 = util / n;
        moved_256_2to1 = moved / n;
      }
    }
  }
  t.print(std::cout);

  const bool met = util_256_2to1 >= 0.75 && moved_256_2to1 <= 0.5;
  std::printf("\n1:1 model vs raw GroupHashTable first failed insert: %s\n",
              model_matches_table ? "identical" : "MISMATCH");
  std::printf("kill criterion at G=256, 2:1 (utilisation >= 0.75, moved_share <= 0.5): "
              "%.3f, %.3f -> %s\n",
              util_256_2to1, moved_256_2to1, met ? "met" : "missed");
  return model_matches_table ? 0 : 1;
}
