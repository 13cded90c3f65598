// File-descriptor helpers for the sorted-set and column-store I/O paths:
// descriptor ownership, positioned reads and best-effort page-cache hints.
//
// posix_fadvise is advisory: every function here degrades to a no-op on
// platforms (or filesystems) that do not support the hint, so callers never
// branch on availability. The hints matter on the merge hot path — readers
// declare their access pattern up front (SEQUENTIAL) and the external
// sorter warms spill runs it is about to re-read (WILLNEED) — which lets
// the kernel schedule readahead instead of discovering the pattern one
// page fault at a time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <utility>

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

/// Asks the kernel to populate the page cache for `[offset, offset+len)`
/// (POSIX_FADV_WILLNEED). Non-blocking; best effort.
void AdviseWillNeed(int fd, uint64_t offset, uint64_t len);

/// Opens `path`, issues WILLNEED for the whole file and closes it again —
/// the hint outlives the descriptor. Used to warm spill runs before the
/// k-way merge re-reads them through buffered streams.
void AdviseFileWillNeed(const std::filesystem::path& path);

/// Reads exactly `len` bytes at `offset` via pread, retrying on EINTR and
/// short reads. Returns false on an I/O error or premature EOF. Thread-safe
/// on a shared descriptor: pread never touches the file position.
[[nodiscard]]
bool PreadExact(int fd, uint64_t offset, char* dst, size_t len);

}  // namespace spider
