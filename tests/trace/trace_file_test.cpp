#include "support/temp_path.hpp"
#include "trace/trace_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

namespace gh::trace {
namespace {

using gh::test::temp_path;

TEST(TraceFile, RoundTrip) {
  OpTrace trace;
  trace.name = "unit";
  trace.wide_keys = true;
  trace.ops = {
      {OpType::kInsert, {1, 2}, 3},
      {OpType::kQuery, {4, 5}, 0},
      {OpType::kDelete, {6, 7}, 0},
  };
  const std::string path = temp_path("gh_trace_roundtrip.bin");
  save_trace(trace, path);
  const OpTrace loaded = load_trace(path);
  EXPECT_EQ(loaded.name, trace.name);
  EXPECT_EQ(loaded.wide_keys, trace.wide_keys);
  ASSERT_EQ(loaded.ops.size(), trace.ops.size());
  for (usize i = 0; i < trace.ops.size(); ++i) EXPECT_EQ(loaded.ops[i], trace.ops[i]);
  std::filesystem::remove(path);
}

TEST(TraceFile, EmptyTrace) {
  OpTrace trace;
  trace.name = "";
  const std::string path = temp_path("gh_trace_empty.bin");
  save_trace(trace, path);
  const OpTrace loaded = load_trace(path);
  EXPECT_TRUE(loaded.ops.empty());
  EXPECT_TRUE(loaded.name.empty());
  std::filesystem::remove(path);
}

TEST(TraceFile, RejectsGarbage) {
  const std::string path = temp_path("gh_trace_garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("not a trace file at all", 1, 23, f);
  std::fclose(f);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceFile, RejectsMissingFile) {
  EXPECT_THROW(load_trace(temp_path("gh_trace_missing.bin")), std::runtime_error);
}

TEST(MakeOpTrace, FillPhasePrecedesOps) {
  const Workload w = make_random_num(1000, 1);
  const OpTrace trace = make_op_trace(w, 500, 200, 0.5, 0.25, 42);
  ASSERT_GE(trace.ops.size(), 500u);
  for (usize i = 0; i < 500; ++i) {
    EXPECT_EQ(trace.ops[i].type, OpType::kInsert);
    EXPECT_EQ(trace.ops[i].key.lo, w.keys64[i]);
    EXPECT_EQ(trace.ops[i].value, value_for_key(w.keys64[i]));
  }
}

TEST(MakeOpTrace, MixRoughlyHonoursFractions) {
  const Workload w = make_random_num(10000, 2);
  const OpTrace trace = make_op_trace(w, 1000, 5000, 0.6, 0.2, 7);
  usize queries = 0, deletes = 0, inserts = 0;
  for (usize i = 1000; i < trace.ops.size(); ++i) {
    switch (trace.ops[i].type) {
      case OpType::kQuery:
        ++queries;
        break;
      case OpType::kDelete:
        ++deletes;
        break;
      case OpType::kInsert:
        ++inserts;
        break;
    }
  }
  const double n = static_cast<double>(trace.ops.size() - 1000);
  EXPECT_NEAR(queries / n, 0.6, 0.05);
  EXPECT_NEAR(deletes / n, 0.2, 0.05);
  EXPECT_NEAR(inserts / n, 0.2, 0.05);
}

TEST(MakeOpTrace, DeletesTargetLiveKeysOnly) {
  const Workload w = make_random_num(5000, 3);
  const OpTrace trace = make_op_trace(w, 1000, 3000, 0.3, 0.3, 9);
  std::set<u64> live;
  for (const TraceOp& op : trace.ops) {
    switch (op.type) {
      case OpType::kInsert:
        EXPECT_TRUE(live.insert(op.key.lo).second) << "duplicate insert";
        break;
      case OpType::kDelete:
        EXPECT_TRUE(live.count(op.key.lo)) << "delete of dead key";
        live.erase(op.key.lo);
        break;
      case OpType::kQuery:
        EXPECT_TRUE(live.count(op.key.lo)) << "query of dead key";
        break;
    }
  }
}

TEST(MakeOpTrace, DeterministicPerSeed) {
  const Workload w = make_random_num(2000, 4);
  const OpTrace a = make_op_trace(w, 500, 500, 0.5, 0.2, 11);
  const OpTrace b = make_op_trace(w, 500, 500, 0.5, 0.2, 11);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (usize i = 0; i < a.ops.size(); ++i) EXPECT_EQ(a.ops[i], b.ops[i]);
}

}  // namespace
}  // namespace gh::trace
