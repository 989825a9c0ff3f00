#include "nvm/fault_fs.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "nvm/region.hpp"
#include "support/temp_path.hpp"

namespace gh::nvm {
namespace {

namespace stdfs = std::filesystem;

using gh::test::temp_path;

void touch(const std::string& path, const std::string& content = "x") {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

TEST(FaultFs, ParentDir) {
  EXPECT_EQ(parent_dir("/a/b/c.gh"), "/a/b");
  EXPECT_EQ(parent_dir("/c.gh"), "/");
  EXPECT_EQ(parent_dir("c.gh"), ".");
}

TEST(FaultFs, StraightThroughWithoutPolicy) {
  ASSERT_EQ(FaultFs::installed(), nullptr);
  const std::string a = temp_path("faultfs_a");
  const std::string b = temp_path("faultfs_b");
  stdfs::remove(a);
  stdfs::remove(b);
  touch(a);
  EXPECT_TRUE(FaultFs::rename(a, b));
  EXPECT_FALSE(stdfs::exists(a));
  EXPECT_TRUE(stdfs::exists(b));
  EXPECT_TRUE(FaultFs::sync_dir(parent_dir(b)));
  EXPECT_TRUE(FaultFs::remove(b));
  EXPECT_FALSE(stdfs::exists(b));
  EXPECT_FALSE(FaultFs::remove(b));  // already gone
}

TEST(FaultFs, PolicySeesStepsInOrderAndScopedInstallResets) {
  const std::string a = temp_path("faultfs_steps_a");
  const std::string b = temp_path("faultfs_steps_b");
  stdfs::remove(a);
  stdfs::remove(b);
  touch(a);
  CrashScheduleFs policy;
  {
    const ScopedFsPolicy installed(&policy);
    ASSERT_EQ(FaultFs::installed(), &policy);
    EXPECT_TRUE(FaultFs::rename(a, b));
    EXPECT_TRUE(FaultFs::sync_dir(parent_dir(b)));
    EXPECT_TRUE(FaultFs::remove(b));
  }
  EXPECT_EQ(FaultFs::installed(), nullptr);
  ASSERT_EQ(policy.trace.size(), 3u);
  EXPECT_EQ(policy.trace[0].op, FsOp::kRename);
  EXPECT_EQ(policy.trace[0].path, a);
  EXPECT_EQ(policy.trace[0].path2, b);
  EXPECT_EQ(policy.trace[1].op, FsOp::kSyncDir);
  EXPECT_EQ(policy.trace[2].op, FsOp::kRemove);
  EXPECT_EQ(policy.trace[2].path, b);
}

TEST(FaultFs, FailAtSkipsTheOperation) {
  const std::string a = temp_path("faultfs_fail_a");
  const std::string b = temp_path("faultfs_fail_b");
  stdfs::remove(a);
  stdfs::remove(b);
  touch(a);
  CrashScheduleFs policy;
  policy.fail_at = 0;
  const ScopedFsPolicy installed(&policy);
  EXPECT_FALSE(FaultFs::rename(a, b));
  EXPECT_TRUE(stdfs::exists(a)) << "a failed rename must not move the file";
  EXPECT_FALSE(stdfs::exists(b));
  EXPECT_TRUE(FaultFs::rename(a, b));  // step 1: proceeds
  stdfs::remove(b);
}

TEST(FaultFs, CrashAtThrowsBeforeTheOperation) {
  const std::string a = temp_path("faultfs_crash_a");
  stdfs::remove(a);
  touch(a);
  CrashScheduleFs policy;
  policy.crash_at = 0;
  const ScopedFsPolicy installed(&policy);
  EXPECT_THROW((void)FaultFs::remove(a), SimulatedCrash);
  EXPECT_TRUE(stdfs::exists(a)) << "the interrupted operation must not execute";
  EXPECT_TRUE(FaultFs::remove(a));  // step 1: proceeds
}

TEST(FaultFs, RegionCreateAndSyncAreObserved) {
  const std::string path = temp_path("faultfs_region.bin");
  stdfs::remove(path);
  CrashScheduleFs policy;
  {
    const ScopedFsPolicy installed(&policy);
    NvmRegion region = NvmRegion::create_file(path, 4096);
    std::memset(region.data(), 0x5A, 16);
    region.sync();
  }
  ASSERT_EQ(policy.trace.size(), 2u);
  EXPECT_EQ(policy.trace[0].op, FsOp::kCreate);
  EXPECT_EQ(policy.trace[0].path, path);
  EXPECT_EQ(policy.trace[1].op, FsOp::kSyncData);
  EXPECT_EQ(policy.trace[1].path, path);
  stdfs::remove(path);
}

TEST(FaultFs, ReclaimOrphan) {
  const std::string path = temp_path("faultfs_orphan");
  stdfs::remove(path);
  EXPECT_FALSE(reclaim_orphan(path));
  touch(path);
  EXPECT_TRUE(reclaim_orphan(path));
  EXPECT_FALSE(stdfs::exists(path));
}

}  // namespace
}  // namespace gh::nvm
