// Scoped temporary directories for spill files and sorted value sets.

#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "src/common/file_io.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace spider {

/// \brief A uniquely named directory that is deleted (recursively) on
/// destruction.
///
/// Used for external-sort spill runs and for the sorted attribute value
/// files that the IND algorithms scan.
class TempDir {
 public:
  /// Creates a fresh directory under the system temp root (or under `parent`
  /// if non-empty), named `<prefix>-<unique>`.
  [[nodiscard]]
  static Result<std::unique_ptr<TempDir>> Make(const std::string& prefix,
                                               const std::string& parent = "");

  /// Creates `<parent>/<prefix>.tmp-<pid>-<n>` (UniqueTempPath) inside a
  /// directory that other processes share, and holds an exclusive flock on
  /// it until destruction. Files its owner keeps in `parent` itself are
  /// named `<that name>.<anything>`. Every sibling `<prefix>.tmp-*`
  /// directory whose lock is free is removed first, with its files: its
  /// owner died without cleaning up (a flock dies with its process), so a
  /// killed run's half-written files do not pile up in the shared
  /// directory.
  [[nodiscard]]
  static Result<std::unique_ptr<TempDir>> MakeShared(
      const std::filesystem::path& parent, const std::string& prefix);

  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Absolute path of the directory.
  const std::filesystem::path& path() const { return path_; }

  /// Path of a file inside the directory.
  std::filesystem::path FilePath(const std::string& name) const {
    return path_ / name;
  }

  /// Disowns the directory so it is kept on destruction (for debugging).
  void Keep() { keep_ = true; }

 private:
  explicit TempDir(std::filesystem::path path, ScopedFd lock = ScopedFd())
      : path_(std::move(path)), lock_(std::move(lock)) {}

  std::filesystem::path path_;
  /// MakeShared's flock on the directory; released after the removal.
  ScopedFd lock_;
  bool keep_ = false;
};

}  // namespace spider
