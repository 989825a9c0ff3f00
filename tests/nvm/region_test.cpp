#include "nvm/region.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <vector>

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

TEST(NvmRegion, SmallAnonymousIsPageRounded) {
  const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  EXPECT_EQ(NvmRegion::create_anonymous(1).size(), page);
  EXPECT_EQ(NvmRegion::create_anonymous(page + 1).size(), 2 * page);
  EXPECT_EQ(NvmRegion::create_anonymous(NvmRegion::kHugePageSize - page).size(),
            NvmRegion::kHugePageSize - page);
}

bool all_zero(const NvmRegion& r) {
  return std::all_of(r.data(), r.data() + r.size(), [](std::byte b) { return b == std::byte{0}; });
}

/// True when no page of [p, p+len) is mapped in this process.
bool unmapped(const std::byte* p, usize len) {
  std::vector<unsigned char> vec(len / static_cast<usize>(sysconf(_SC_PAGESIZE)) + 1);
  return ::mincore(const_cast<std::byte*>(p), len, vec.data()) != 0 && errno == ENOMEM;
}

TEST(NvmRegion, LargeAnonymousIsHugePageAlignedZeroedAndWritable) {
  // Alignment and size are the mapping's own; whether the kernel grants
  // huge pages is its THP policy, which this test does not look at.
  const usize huge = NvmRegion::kHugePageSize;
  const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  for (const usize bytes : {huge, huge + 1, 3 * huge + 5 * page + 17}) {
    NvmRegion r = NvmRegion::create_anonymous(bytes);
    ASSERT_TRUE(r.valid());
    EXPECT_FALSE(r.file_backed());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.data()) % huge, 0u) << bytes;
    EXPECT_EQ(r.size(), round_up(bytes, page)) << bytes;
    EXPECT_TRUE(all_zero(r)) << bytes;
    r.data()[0] = std::byte{0x5a};
    r.data()[r.size() - 1] = std::byte{0xa5};
    EXPECT_EQ(r.data()[0], std::byte{0x5a});
    EXPECT_EQ(r.data()[r.size() - 1], std::byte{0xa5});
  }
}

TEST(NvmRegion, LargeAnonymousSurvivesMovesAndUnmapsOnDestruction) {
  const usize size = 2 * NvmRegion::kHugePageSize + 4096;
  const std::byte* data = nullptr;
  {
    NvmRegion a = NvmRegion::create_anonymous(size);
    data = a.data();
    a.data()[0] = std::byte{1};
    a.data()[a.size() - 1] = std::byte{2};
    NvmRegion b = std::move(a);
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
    NvmRegion c;
    c = std::move(b);
    ASSERT_EQ(c.data(), data);
    EXPECT_EQ(c.size(), size);
    EXPECT_EQ(c.data()[0], std::byte{1});
    EXPECT_EQ(c.data()[size - 1], std::byte{2});
    EXPECT_FALSE(unmapped(data, size));
  }
  EXPECT_TRUE(unmapped(data, size));
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
