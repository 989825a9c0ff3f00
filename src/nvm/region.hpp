// NvmRegion — a contiguous byte range standing in for a PMFS-style
// direct-access mapping of non-volatile memory.
//
// Two backings:
//   * anonymous: plain mmap'd memory (the common case for benches/tests,
//     matching the paper's "portion of DRAM used as NVM");
//   * file: mmap of a regular file, giving actual cross-process/-run
//     durability so the public GroupHashMap API can close and reopen maps
//     the way an application on real NVM (or PMFS) would.
#pragma once

#include <span>
#include <string>

#include "util/types.hpp"

namespace gh::nvm {

class NvmRegion {
 public:
  /// x86-64 transparent huge page size.
  static constexpr usize kHugePageSize = usize{2} << 20;

  /// Anonymous mapping of `bytes` (rounded up to the page size), zeroed.
  /// A region of at least kHugePageSize starts on a kHugePageSize
  /// boundary and is advised MADV_HUGEPAGE, so a cache-missing probe also
  /// misses the TLB far less often; whether huge pages are granted is the
  /// kernel's THP policy.
  static NvmRegion create_anonymous(usize bytes);

  /// Create (or truncate) `path` with `bytes` and map it read-write.
  static NvmRegion create_file(const std::string& path, usize bytes);

  /// Map an existing file read-write at its current size.
  static NvmRegion open_file(const std::string& path);

  NvmRegion() = default;
  NvmRegion(NvmRegion&& other) noexcept;
  NvmRegion& operator=(NvmRegion&& other) noexcept;
  NvmRegion(const NvmRegion&) = delete;
  NvmRegion& operator=(const NvmRegion&) = delete;
  ~NvmRegion();

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] std::span<std::byte> bytes() { return {data_, size_}; }
  [[nodiscard]] bool valid() const { return data_ != nullptr; }
  [[nodiscard]] bool file_backed() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// msync the mapping (file-backed only; no-op otherwise). The emulation
  /// treats clflush+fence as the durability point — sync() exists so
  /// closing a file-backed map flushes it through the page cache as well.
  void sync();

  /// msync only [offset, offset+len) (page-aligned outward; clamped to the
  /// mapping; file-backed only). Lets long-lived incremental writers —
  /// online-resize migration formatting just a superblock page, or its
  /// periodic background flushes — avoid a full-region msync stall.
  void sync_range(usize offset, usize len);

 private:
  NvmRegion(std::byte* data, usize size, int fd, std::string path);

  std::byte* data_ = nullptr;
  usize size_ = 0;
  int fd_ = -1;
  std::string path_;
};

}  // namespace gh::nvm
