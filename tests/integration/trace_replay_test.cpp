// End-to-end integration: generate a paper-style workload, turn it into a
// recorded operation trace, replay it through the public GroupHashMap API
// and through every comparison scheme, and check they all agree with a
// reference map.
#include <gtest/gtest.h>

#include <filesystem>
#include <unordered_map>

#include "core/group_hash_map.hpp"
#include "hash/any_table.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "support/temp_path.hpp"
#include "trace/trace_file.hpp"
#include "trace/workload.hpp"

namespace gh {
namespace {

struct KeyHash {
  usize operator()(const Key128& k) const {
    return static_cast<usize>(hash::fmix64(k.lo) ^ k.hi);
  }
};

using Oracle = std::unordered_map<Key128, u64, KeyHash>;

Oracle replay_reference(const trace::OpTrace& t) {
  Oracle oracle;
  for (const trace::TraceOp& op : t.ops) {
    switch (op.type) {
      case trace::OpType::kInsert:
        oracle[op.key] = op.value;
        break;
      case trace::OpType::kDelete:
        oracle.erase(op.key);
        break;
      case trace::OpType::kQuery:
        break;
    }
  }
  return oracle;
}

TEST(TraceReplay, GroupHashMapMatchesReferenceOnAllTraces) {
  for (const trace::TraceKind kind :
       {trace::TraceKind::kRandomNum, trace::TraceKind::kBagOfWords,
        trace::TraceKind::kFingerprint}) {
    const trace::Workload w = trace::make_workload(kind, 4000, 42);
    const trace::OpTrace t = trace::make_op_trace(w, 2000, 3000, 0.4, 0.2, 7);
    const Oracle oracle = replay_reference(t);

    if (w.wide_keys) {
      auto map = GroupHashMapWide::create_in_memory({.initial_cells = 1 << 13});
      for (const trace::TraceOp& op : t.ops) {
        switch (op.type) {
          case trace::OpType::kInsert:
            map.put(op.key, op.value);
            break;
          case trace::OpType::kDelete:
            EXPECT_TRUE(map.erase(op.key));
            break;
          case trace::OpType::kQuery:
            EXPECT_TRUE(map.get(op.key).has_value());
            break;
        }
      }
      EXPECT_EQ(map.size(), oracle.size()) << w.name;
      for (const auto& [k, v] : oracle) EXPECT_EQ(*map.get(k), v);
    } else {
      auto map = GroupHashMap::create_in_memory({.initial_cells = 1 << 13});
      for (const trace::TraceOp& op : t.ops) {
        switch (op.type) {
          case trace::OpType::kInsert:
            map.put(op.key.lo, op.value);
            break;
          case trace::OpType::kDelete:
            EXPECT_TRUE(map.erase(op.key.lo));
            break;
          case trace::OpType::kQuery:
            EXPECT_TRUE(map.get(op.key.lo).has_value());
            break;
        }
      }
      EXPECT_EQ(map.size(), oracle.size()) << w.name;
      for (const auto& [k, v] : oracle) EXPECT_EQ(*map.get(k.lo), v);
    }
  }
}

TEST(TraceReplay, AllSchemesAgreeOnTheSameTrace) {
  const trace::Workload w = trace::make_random_num(3000, 9);
  const trace::OpTrace t = trace::make_op_trace(w, 1500, 2000, 0.3, 0.3, 11);
  const Oracle oracle = replay_reference(t);

  for (const hash::Scheme scheme : {hash::Scheme::kGroup, hash::Scheme::kLinear,
                                    hash::Scheme::kPfht, hash::Scheme::kPath}) {
    hash::TableConfig cfg;
    cfg.scheme = scheme;
    cfg.total_cells_log2 = 13;
    nvm::DirectPM pm(nvm::PersistConfig::counting_only());
    nvm::NvmRegion region =
        nvm::NvmRegion::create_anonymous(hash::table_required_bytes(cfg));
    auto table =
        hash::make_table(pm, region.bytes().first(hash::table_required_bytes(cfg)), cfg, true);

    for (const trace::TraceOp& op : t.ops) {
      switch (op.type) {
        case trace::OpType::kInsert:
          ASSERT_TRUE(table->insert(op.key, op.value)) << table->name();
          break;
        case trace::OpType::kDelete:
          ASSERT_TRUE(table->erase(op.key)) << table->name();
          break;
        case trace::OpType::kQuery:
          ASSERT_TRUE(table->find(op.key).has_value()) << table->name();
          break;
      }
    }
    EXPECT_EQ(table->count(), oracle.size()) << table->name();
    for (const auto& [k, v] : oracle) {
      ASSERT_TRUE(table->find(k).has_value()) << table->name();
      EXPECT_EQ(*table->find(k), v) << table->name();
    }
  }
}

TEST(TraceReplay, SavedTraceReplaysIdentically) {
  const std::string path = test::temp_path("gh_integration_trace.bin");
  const trace::Workload w = trace::make_bag_of_words(2000, 5);
  const trace::OpTrace original = trace::make_op_trace(w, 1000, 1000, 0.5, 0.2, 3);
  trace::save_trace(original, path);
  const trace::OpTrace loaded = trace::load_trace(path);

  auto a = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  auto b = GroupHashMap::create_in_memory({.initial_cells = 1 << 12});
  auto replay = [](GroupHashMap& m, const trace::OpTrace& t) {
    for (const trace::TraceOp& op : t.ops) {
      if (op.type == trace::OpType::kInsert) m.put(op.key.lo, op.value);
      if (op.type == trace::OpType::kDelete) m.erase(op.key.lo);
    }
  };
  replay(a, original);
  replay(b, loaded);
  EXPECT_EQ(a.size(), b.size());
  a.for_each([&](u64 k, u64 v) { EXPECT_EQ(*b.get(k), v); });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gh
