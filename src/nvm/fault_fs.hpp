// FaultFs — a filesystem fault-injection shim for the map files' publish
// path: a resize's `.migrate` target, its cursor and its rename publish.
//
// The ShadowPM crash simulator covers the paper's in-place 8-byte commit
// protocol, but the map layer also rebuilds whole files (tmp create →
// write-back → rename → parent-dir fsync) and those steps live entirely
// in the filesystem, outside ShadowPM's reach. FaultFs routes every file
// operation the maps perform through an injectable policy so tests can
//
//   * stop the world at any step boundary (SimulatedCrash) and observe
//     exactly the directory state a power failure there would leave, and
//   * make any single step fail (Decision::kFail) the way the underlying
//     syscall would, to exercise the error-cleanup paths.
//
// Crash model: a power failure at a step boundary leaves every earlier
// step applied and the interrupted step (and everything after it) not
// applied. This enumeration is complete for the publish protocol's
// metadata states: "rename issued but lost before the directory fsync"
// is on-disk identical to "crashed before the rename", so crashing
// before each step in turn visits every reachable directory state. The
// one non-metadata state — temp-file *content* not yet durable because
// the crash hit before the write-back — is materialised by the test
// corrupting the temp file after the simulated crash (see
// tests/core/publish_crash_test.cpp).
//
// With no policy installed every operation goes straight through to the
// real filesystem; the hot paths (put/get) never touch this layer.
#pragma once

#include <atomic>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace gh::nvm {

/// The complete set of file operations the map layer performs. These are
/// the step boundaries of every crash schedule.
enum class FsOp : u8 {
  kCreate,    ///< create/truncate a region file (open+ftruncate)
  kSyncData,  ///< write a region's pages back (msync)
  kRename,    ///< atomically replace `path2` with `path`
  kSyncDir,   ///< fsync a directory (makes preceding renames durable)
  kRemove,    ///< unlink a file
};

[[nodiscard]] const char* to_string(FsOp op);

/// One observed file operation.
struct FsStep {
  FsOp op;
  std::string path;   ///< primary path (source for kRename)
  std::string path2;  ///< kRename destination; empty otherwise
};

/// Thrown by a policy to simulate a power failure at a step boundary.
/// The interrupted operation does NOT execute, and no cleanup code runs
/// on the way out (a real crash runs none either) — callers must let
/// this propagate untouched.
struct SimulatedCrash : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "simulated power failure (FaultFs crash point)";
  }
};

/// Injection policy consulted before every operation.
class FsPolicy {
 public:
  enum class Decision {
    kProceed,  ///< execute the real operation
    kFail,     ///< skip it and report failure like the syscall would
  };

  virtual ~FsPolicy() = default;
  virtual Decision on_step(const FsStep& step) = 0;
};

/// Static hub the map/region code calls instead of raw syscalls.
class FaultFs {
 public:
  /// Install a policy (nullptr restores straight-through behaviour).
  /// Tests own the policy's lifetime; it must outlive the installation.
  static void install(FsPolicy* policy);
  [[nodiscard]] static FsPolicy* installed();

  /// Observation hooks for operations NvmRegion executes itself.
  /// Throw SimulatedCrash (policy crash) or std::runtime_error (kFail).
  static void notify_create(const std::string& path);
  static void notify_sync(const std::string& path);

  /// rename(from → to). Returns false (errno set) on kFail or a real
  /// rename failure.
  [[nodiscard]] static bool rename(const std::string& from, const std::string& to);

  /// fsync the directory `dir`. Returns false on kFail or a real error.
  [[nodiscard]] static bool sync_dir(const std::string& dir);

  /// unlink `path`. Returns true when the file was removed.
  static bool remove(const std::string& path);
};

/// RAII policy installation for tests.
class ScopedFsPolicy {
 public:
  explicit ScopedFsPolicy(FsPolicy* policy) { FaultFs::install(policy); }
  ~ScopedFsPolicy() { FaultFs::install(nullptr); }
  ScopedFsPolicy(const ScopedFsPolicy&) = delete;
  ScopedFsPolicy& operator=(const ScopedFsPolicy&) = delete;
};

/// Deterministic crash-schedule enumerator. Record mode (no crash_at /
/// fail_at) counts and traces the steps an operation performs; replay
/// runs then pick one boundary per trial:
///
///   crash_at = k — throw SimulatedCrash *before* executing step k
///                  (0-based), freezing the directory in the state a
///                  power failure at that boundary leaves;
///   fail_at  = k — step k reports failure (syscall error) instead,
///                  exercising the in-process cleanup path.
class CrashScheduleFs : public FsPolicy {
 public:
  std::optional<usize> crash_at;
  std::optional<usize> fail_at;
  std::vector<FsStep> trace;

  Decision on_step(const FsStep& step) override {
    const usize index = trace.size();
    trace.push_back(step);
    if (crash_at && index == *crash_at) throw SimulatedCrash{};
    if (fail_at && index == *fail_at) return Decision::kFail;
    return Decision::kProceed;
  }
};

/// Directory containing `path` ("." when the path has no directory part).
[[nodiscard]] std::string parent_dir(const std::string& path);

/// open()-time reclamation: unlink `orphan_path` if a crashed resize left
/// it behind (the caller has checked it is not authoritative). Returns
/// true when a stale orphan was removed.
bool reclaim_orphan(const std::string& orphan_path);

}  // namespace gh::nvm
