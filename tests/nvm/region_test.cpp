#include "nvm/region.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

namespace gh::nvm {
namespace {

using gh::test::temp_path;

TEST(NvmRegion, AnonymousIsZeroed) {
  NvmRegion r = NvmRegion::create_anonymous(4096);
  ASSERT_TRUE(r.valid());
  EXPECT_GE(r.size(), 4096u);
  for (usize i = 0; i < r.size(); ++i) EXPECT_EQ(r.data()[i], std::byte{0});
}

TEST(NvmRegion, AnonymousIsWritable) {
  NvmRegion r = NvmRegion::create_anonymous(4096);
  std::memset(r.data(), 0xab, r.size());
  EXPECT_EQ(r.data()[100], std::byte{0xab});
}

TEST(NvmRegion, RoundsUpToPageSize) {
  NvmRegion r = NvmRegion::create_anonymous(1);
  EXPECT_GE(r.size(), 4096u);
}

TEST(NvmRegion, FileBackedPersistsAcrossMappings) {
  const std::string path = temp_path("gh_region_test.nvm");
  {
    NvmRegion r = NvmRegion::create_file(path, 8192);
    ASSERT_TRUE(r.valid());
    EXPECT_TRUE(r.file_backed());
    std::memcpy(r.data(), "hello-nvm", 10);
    r.sync();
  }
  {
    NvmRegion r = NvmRegion::open_file(path);
    ASSERT_TRUE(r.valid());
    EXPECT_GE(r.size(), 8192u);
    EXPECT_EQ(std::memcmp(r.data(), "hello-nvm", 10), 0);
  }
  std::filesystem::remove(path);
}

TEST(NvmRegion, CreateFileTruncatesExisting) {
  const std::string path = temp_path("gh_region_trunc.nvm");
  {
    NvmRegion r = NvmRegion::create_file(path, 4096);
    std::memset(r.data(), 0xff, 16);
    r.sync();
  }
  {
    NvmRegion r = NvmRegion::create_file(path, 4096);
    EXPECT_EQ(r.data()[0], std::byte{0});
  }
  std::filesystem::remove(path);
}

TEST(NvmRegion, OpenMissingFileThrows) {
  EXPECT_THROW(NvmRegion::open_file(temp_path("gh_region_nonexistent.nvm")),
               std::runtime_error);
}

TEST(NvmRegion, MoveTransfersOwnership) {
  NvmRegion a = NvmRegion::create_anonymous(4096);
  std::byte* data = a.data();
  NvmRegion b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), data);
  NvmRegion c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.data(), data);
}

TEST(NvmRegion, DefaultConstructedIsInvalid) {
  NvmRegion r;
  EXPECT_FALSE(r.valid());
  EXPECT_EQ(r.size(), 0u);
}

}  // namespace
}  // namespace gh::nvm
