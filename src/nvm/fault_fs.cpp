#include "nvm/fault_fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

namespace gh::nvm {
namespace {

std::atomic<FsPolicy*> g_policy{nullptr};

[[nodiscard]] FsPolicy::Decision consult(FsOp op, const std::string& path,
                                         const std::string& path2 = {}) {
  FsPolicy* policy = g_policy.load(std::memory_order_acquire);
  if (policy == nullptr) return FsPolicy::Decision::kProceed;
  return policy->on_step(FsStep{op, path, path2});
}

[[noreturn]] void throw_injected(FsOp op, const std::string& path) {
  throw std::runtime_error(std::string("fault injection: ") + to_string(op) + "(" + path +
                           ") failed");
}

}  // namespace

const char* to_string(FsOp op) {
  switch (op) {
    case FsOp::kCreate: return "create";
    case FsOp::kSyncData: return "sync_data";
    case FsOp::kRename: return "rename";
    case FsOp::kSyncDir: return "sync_dir";
    case FsOp::kRemove: return "remove";
  }
  return "?";
}

void FaultFs::install(FsPolicy* policy) {
  g_policy.store(policy, std::memory_order_release);
}

FsPolicy* FaultFs::installed() { return g_policy.load(std::memory_order_acquire); }

void FaultFs::notify_create(const std::string& path) {
  if (consult(FsOp::kCreate, path) == FsPolicy::Decision::kFail) {
    throw_injected(FsOp::kCreate, path);
  }
}

void FaultFs::notify_sync(const std::string& path) {
  if (consult(FsOp::kSyncData, path) == FsPolicy::Decision::kFail) {
    throw_injected(FsOp::kSyncData, path);
  }
}

bool FaultFs::rename(const std::string& from, const std::string& to) {
  if (consult(FsOp::kRename, from, to) == FsPolicy::Decision::kFail) {
    errno = EIO;
    return false;
  }
  return std::rename(from.c_str(), to.c_str()) == 0;
}

bool FaultFs::sync_dir(const std::string& dir) {
  if (consult(FsOp::kSyncDir, dir) == FsPolicy::Decision::kFail) {
    errno = EIO;
    return false;
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool FaultFs::remove(const std::string& path) {
  if (consult(FsOp::kRemove, path) == FsPolicy::Decision::kFail) {
    errno = EIO;
    return false;
  }
  return std::remove(path.c_str()) == 0;
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool reclaim_orphan(const std::string& orphan_path) {
  if (::access(orphan_path.c_str(), F_OK) != 0) return false;
  return FaultFs::remove(orphan_path);
}

}  // namespace gh::nvm
