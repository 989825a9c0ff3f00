// Scratch file paths private to the running test.
//
// gtest_discover_tests runs every test as its own process and `ctest -j`
// runs those processes side by side, so two tests that name the same
// file in the shared temp directory delete and rewrite each other's
// data. Every path handed out here lives in a directory named after the
// running test and the process,
//   <temp_directory_path()>/gh_test.<Suite>.<Test>.<pid>/<name>,
// and that directory is removed when the test ends. Pass each helper a
// literal that no other test passes; tools/check_test_temp_names checks.
#pragma once

#include <string>

namespace gh::test {

/// <per-test directory>/<name>; creates the directory on first use.
[[nodiscard]] std::string temp_path(const std::string& name);

/// temp_path(name) as a fresh, empty directory.
[[nodiscard]] std::string temp_dir(const std::string& name);

/// temp_path(name) with the file and its `.migrate` and `.flight`
/// siblings removed at construction and at destruction.
struct TempFile {
  explicit TempFile(const std::string& name);
  ~TempFile();
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  void remove_all() const;

  std::string path;
};

}  // namespace gh::test
