// File-descriptor helpers for the sorted-set and column-store I/O paths:
// descriptor ownership, positioned reads, best-effort page-cache hints,
// the unique temp names that writers publish through a rename, whole-file
// reads and atomic commits of the workspace manifests, and file identities
// that tell a file from its replacement.
//
// posix_fadvise is advisory: AdviseSequential degrades to a no-op on
// platforms (or filesystems) that do not support the hint, so callers never
// branch on availability. Readers on the merge hot path — spill runs
// included, which are read back as set files — declare their access
// pattern up front, which lets the kernel schedule readahead instead of
// discovering the pattern one page fault at a time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/result.h"

namespace spider {

/// Owns a file descriptor and closes it on destruction or Reset(); -1
/// holds nothing. Moving transfers ownership.
class ScopedFd {
 public:
  explicit ScopedFd(int fd = -1) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(ScopedFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  /// Closes the descriptor (releasing any flock it holds).
  void Reset();

 private:
  int fd_;
};

/// Declares whole-file sequential access on an open descriptor
/// (POSIX_FADV_SEQUENTIAL): the kernel roughly doubles its readahead
/// window. Best effort; no-op where unsupported.
void AdviseSequential(int fd);

/// Reads exactly `len` bytes at `offset` via pread, retrying on EINTR and
/// short reads. Returns false on an I/O error or premature EOF. Thread-safe
/// on a shared descriptor: pread never touches the file position.
[[nodiscard]]
bool PreadExact(int fd, uint64_t offset, char* dst, size_t len);

/// A sibling of `final_path` that no other writer uses:
/// `<final>.tmp-<pid>-<n>`, with `n` from a process-wide counter. Writers
/// fill it and rename it over `final_path`, so a reader of a shared
/// workspace — in this process or another — sees the old file or the
/// complete new one, never a half-written one. The name never ends in the
/// final path's extension (a `.set` scan skips it).
std::filesystem::path UniqueTempPath(const std::filesystem::path& final_path);

/// The bytes of the regular file at `path`; IOError when it is missing, is
/// not a regular file or cannot be read.
[[nodiscard]]
Result<std::string> ReadFileBytes(const std::filesystem::path& path);

/// Replaces the file at `path` with `bytes`: writes them to a
/// UniqueTempPath sibling and renames it over `path`, so a reader sees the
/// old file or the complete new one, and concurrent writers each rename a
/// whole file of their own. A failed write or rename removes the temp file
/// and returns an IOError naming it.
[[nodiscard]]
Status WriteFileAtomically(const std::filesystem::path& path,
                           std::string_view bytes);

/// What tells a file apart from its replacement at the same path. A writer
/// that publishes by rename always changes the inode; size and mtime tell
/// apart a later file that happens to reuse a freed inode number.
struct FileIdentity {
  uint64_t device = 0;
  uint64_t inode = 0;
  int64_t size = 0;
  int64_t mtime_sec = 0;
  int64_t mtime_nsec = 0;
  // Spelled out: bench/e2e includes this header as C++17.
  bool operator==(const FileIdentity& other) const {
    return device == other.device && inode == other.inode &&
           size == other.size && mtime_sec == other.mtime_sec &&
           mtime_nsec == other.mtime_nsec;
  }
};

/// The identity of the regular file at `path`; nullopt when there is none.
std::optional<FileIdentity> StatFileIdentity(const std::filesystem::path& path);

}  // namespace spider
