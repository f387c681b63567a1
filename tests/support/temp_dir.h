// TempDir: a scratch directory that belongs to one test process.
//
// Tests that write files must not share a fixed path under the temp
// directory: concurrent copies of one test binary (ctest -j, or several
// shells running --gtest_repeat) would then remove or overwrite each
// other's files mid-test. A TempDir's path carries the process id, so
// every process gets its own; the directory is created empty and removed
// with everything in it when the TempDir goes out of scope.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace test_support {

class TempDir {
 public:
  /// Creates `<temp>/<stem>.<pid>`, removing whatever an earlier process
  /// with the same id left there.
  explicit TempDir(const std::string& stem)
      : path_(std::filesystem::temp_directory_path() /
              (stem + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// `path() / leaf` as a string.
  [[nodiscard]] std::string file(const std::string& leaf) const {
    return (path_ / leaf).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace test_support
