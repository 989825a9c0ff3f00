#include "support/temp_path.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <system_error>

namespace gh::test {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const ::testing::TestInfo* info) {
  std::string name =
      info != nullptr ? std::string(info->test_suite_name()) + "." + info->name() : "no_test";
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names: Prefix/Suite.Test/Param
  }
  return fs::temp_directory_path() /
         ("gh_test." + name + "." + std::to_string(static_cast<long>(::getpid())));
}

/// Removes the per-test directory when each test ends.
class RemoveTestDir : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ec;
    fs::remove_all(test_dir(&info), ec);
  }
};

[[maybe_unused]] const bool kRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new RemoveTestDir);
  return true;
}();

}  // namespace

std::string temp_path(const std::string& name) {
  const fs::path dir = test_dir(::testing::UnitTest::GetInstance()->current_test_info());
  fs::create_directories(dir);
  return (dir / name).string();
}

std::string temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TempFile::TempFile(const std::string& name) : path(temp_path(name)) { remove_all(); }

TempFile::~TempFile() { remove_all(); }

void TempFile::remove_all() const {
  for (const char* suffix : {"", ".migrate", ".flight"}) {
    std::error_code ec;
    fs::remove(path + suffix, ec);
  }
}

}  // namespace gh::test
