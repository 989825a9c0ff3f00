#include "nvm/region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "nvm/fault_fs.hpp"
#include "util/assert.hpp"

namespace gh::nvm {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

usize page_round(usize bytes) {
  const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  return round_up(bytes, page);
}

/// Closes the owned fd on every exit path unless release()d into an
/// NvmRegion. Preserves errno across the ::close() so the error that
/// started the unwinding — not the close's — is what throw_errno reports.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) {
      const int saved = errno;
      ::close(fd_);
      errno = saved;
    }
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

}  // namespace

NvmRegion::NvmRegion(std::byte* data, usize size, int fd, std::string path)
    : data_(data), size_(size), fd_(fd), path_(std::move(path)) {}

NvmRegion NvmRegion::create_anonymous(usize bytes) {
  const usize size = page_round(bytes);
  // A region of at least one huge page is over-mapped by one, then its
  // unaligned head and the tail past `size` are unmapped, leaving a
  // mapping that starts on a huge-page boundary, so every whole 2 MiB of
  // it can be backed by one TLB entry.
  const bool huge = size >= kHugePageSize;
  const usize span = huge ? size + kHugePageSize : size;
  void* p = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw_errno("mmap(anonymous NVM region)");
  if (!huge) return NvmRegion(static_cast<std::byte*>(p), size, -1, {});
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const usize head = round_up(addr, kHugePageSize) - addr;
  const usize tail = span - head - size;
  std::byte* data = static_cast<std::byte*>(p) + head;
  if (head > 0) GH_CHECK(::munmap(p, head) == 0);
  if (tail > 0) GH_CHECK(::munmap(data + size, tail) == 0);
  // Advice only: a kernel whose THP policy is "never", or that lacks
  // THP, refuses it, and the region keeps base pages.
  (void)::madvise(data, size, MADV_HUGEPAGE);
  return NvmRegion(data, size, -1, {});
}

NvmRegion NvmRegion::create_file(const std::string& path, usize bytes) {
  FaultFs::notify_create(path);  // fault-injection step boundary
  const usize size = page_round(bytes);
  FdGuard fd(::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644));
  if (fd.get() < 0) throw_errno("open(" + path + ")");
  if (::ftruncate(fd.get(), static_cast<off_t>(size)) != 0) {
    throw_errno("ftruncate(" + path + ")");
  }
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd.get(), 0);
  if (p == MAP_FAILED) throw_errno("mmap(" + path + ")");
  return NvmRegion(static_cast<std::byte*>(p), size, fd.release(), path);
}

NvmRegion NvmRegion::open_file(const std::string& path) {
  FdGuard fd(::open(path.c_str(), O_RDWR));
  if (fd.get() < 0) throw_errno("open(" + path + ")");
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) {
    throw_errno("fstat(" + path + ")");
  }
  const usize size = static_cast<usize>(st.st_size);
  GH_CHECK_MSG(size > 0, "cannot map an empty NVM file");
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd.get(), 0);
  if (p == MAP_FAILED) throw_errno("mmap(" + path + ")");
  return NvmRegion(static_cast<std::byte*>(p), size, fd.release(), path);
}

NvmRegion::NvmRegion(NvmRegion&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)) {}

NvmRegion& NvmRegion::operator=(NvmRegion&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    if (fd_ >= 0) ::close(fd_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

NvmRegion::~NvmRegion() {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (fd_ >= 0) ::close(fd_);
}

void NvmRegion::sync() {
  if (data_ != nullptr && fd_ >= 0) {
    FaultFs::notify_sync(path_);  // fault-injection step boundary
    GH_CHECK(::msync(data_, size_, MS_SYNC) == 0);
  }
}

void NvmRegion::sync_range(usize offset, usize len) {
  if (data_ == nullptr || fd_ < 0 || len == 0 || offset >= size_) return;
  FaultFs::notify_sync(path_);  // fault-injection step boundary
  const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  const usize begin = offset - (offset % page);  // msync demands page alignment
  const usize end = std::min(size_, round_up(offset + len, page));
  GH_CHECK(::msync(data_ + begin, end - begin, MS_SYNC) == 0);
}

}  // namespace gh::nvm
