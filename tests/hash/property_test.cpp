// Property-based sweeps: every scheme × cell width × logging × geometry
// runs a randomized churn workload against a std::unordered_map oracle,
// checking the full behavioural contract (membership, values, count,
// recover() idempotence) rather than individual scenarios.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "hash/any_table.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

struct PropertyCase {
  Scheme scheme;
  u32 total_cells_log2;
  u32 group_size;
  bool wide;
  bool wal;
  double target_load;
  u64 seed;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string name = scheme_name(c.scheme);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  name += "_c" + std::to_string(c.total_cells_log2);
  name += "_g" + std::to_string(c.group_size);
  name += c.wide ? "_wide" : "_narrow";
  name += c.wal ? "_wal" : "_plain";
  name += "_l" + std::to_string(static_cast<int>(c.target_load * 100));
  name += "_s" + std::to_string(c.seed);
  return name;
}

struct KeyHash {
  usize operator()(const Key128& k) const {
    return static_cast<usize>(fmix64(k.lo) ^ k.hi);
  }
};

class SchemeProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SchemeProperty, ChurnMatchesOracle) {
  const PropertyCase c = GetParam();
  TableConfig cfg;
  cfg.scheme = c.scheme;
  cfg.total_cells_log2 = c.total_cells_log2;
  cfg.group_size = c.group_size;
  cfg.wide_cells = c.wide;
  cfg.with_wal = c.wal;
  nvm::DirectPM pm(nvm::PersistConfig::counting_only());
  nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(table_required_bytes(cfg));
  auto table = make_table(pm, region.bytes().first(table_required_bytes(cfg)), cfg, true);

  std::unordered_map<Key128, u64, KeyHash> oracle;
  std::vector<Key128> live;
  Xoshiro256 rng(c.seed);
  const u64 capacity = table->capacity();
  const u64 target = static_cast<u64>(static_cast<double>(capacity) * c.target_load);

  auto fresh_key = [&] {
    const u64 lo = rng.next_below(1ull << 40) + 1;
    return Key128{lo, c.wide ? rng.next() : 0};
  };

  const int steps = 4000;
  for (int step = 0; step < steps; ++step) {
    const double r = rng.next_double();
    if (r < 0.55 && oracle.size() < target) {
      const Key128 k = fresh_key();
      if (oracle.count(k)) continue;
      const u64 v = rng.next();
      if (table->insert(k, v)) {
        oracle[k] = v;
        live.push_back(k);
      }
      // Insert failure below target load is acceptable only for the
      // schemes the paper excludes for exactly that reason.
    } else if (r < 0.80 && !live.empty()) {
      const Key128 k = live[rng.next_below(live.size())];
      const auto found = table->find(k);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(*found, oracle[k]);
    } else if (r < 0.90) {
      // Negative lookup.
      const Key128 k = fresh_key();
      if (!oracle.count(k)) {
        EXPECT_FALSE(table->find(k).has_value());
      }
    } else if (!live.empty()) {
      const usize idx = rng.next_below(live.size());
      const Key128 k = live[idx];
      EXPECT_TRUE(table->erase(k));
      oracle.erase(k);
      live[idx] = live.back();
      live.pop_back();
      EXPECT_FALSE(table->erase(k));  // double delete must fail
    }
    ASSERT_EQ(table->count(), oracle.size()) << "step " << step;
  }

  // Full sweep: every oracle entry present with the right value.
  for (const auto& [k, v] : oracle) {
    const auto found = table->find(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  }

  // recover() on a healthy table is an identity for the logical contents.
  const auto report = table->recover();
  EXPECT_EQ(report.recovered_count, oracle.size());
  EXPECT_EQ(report.wal_records_rolled_back, 0u);
  for (const auto& [k, v] : oracle) EXPECT_EQ(*table->find(k), v);

  // And it is idempotent.
  const auto report2 = table->recover();
  EXPECT_EQ(report2.recovered_count, report.recovered_count);
  EXPECT_EQ(report2.cells_scrubbed, 0u);
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  // The paper's contenders, both widths, with and without logging.
  for (const Scheme s : {Scheme::kGroup, Scheme::kLinear, Scheme::kPfht, Scheme::kPath}) {
    for (const bool wide : {false, true}) {
      for (const bool wal : {false, true}) {
        cases.push_back({s, 11, 64, wide, wal, 0.5, 101});
      }
    }
  }
  // Group hashing geometry sweep (Fig. 8's dimension).
  for (const u32 group_size : {1u, 4u, 16u, 64u, 256u}) {
    cases.push_back({Scheme::kGroup, 11, group_size, false, false, 0.5, 202});
  }
  // Load-factor sweep at the paper's two operating points and beyond.
  for (const double load : {0.25, 0.5, 0.75}) {
    cases.push_back({Scheme::kGroup, 12, 256, false, false, load, 303});
    cases.push_back({Scheme::kLinear, 12, 256, false, false, load, 303});
  }
  // Excluded baselines at gentle load.
  cases.push_back({Scheme::kChained, 11, 64, false, false, 0.4, 404});
  cases.push_back({Scheme::kTwoChoice, 11, 64, false, false, 0.3, 404});
  // Extension schemes: classic cuckoo and the §4.4 two-hash variant.
  cases.push_back({Scheme::kCuckoo, 11, 64, false, false, 0.4, 505});
  cases.push_back({Scheme::kCuckoo, 11, 64, true, false, 0.4, 505});
  cases.push_back({Scheme::kGroup2H, 11, 64, false, false, 0.6, 505});
  cases.push_back({Scheme::kGroup2H, 11, 64, true, false, 0.6, 505});
  cases.push_back({Scheme::kGroup2H, 12, 256, false, false, 0.75, 506});
  cases.push_back({Scheme::kLevel, 11, 64, false, false, 0.6, 607});
  cases.push_back({Scheme::kLevel, 11, 64, true, false, 0.6, 607});
  cases.push_back({Scheme::kLevel, 12, 64, false, true, 0.5, 608});
  // Seed diversity on the headline configuration.
  for (const u64 seed : {1ull, 2ull, 3ull}) {
    cases.push_back({Scheme::kGroup, 12, 256, false, false, 0.6, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchemeProperty, ::testing::ValuesIn(property_cases()),
                         case_name);

}  // namespace
}  // namespace gh::hash
