#include "src/common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace spider {

void ScopedFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void AdviseSequential(int fd) {
#ifdef POSIX_FADV_SEQUENTIAL
  if (fd >= 0) {
    // ignore-status: advisory hint; failure must not fail the read path
    (void)posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
  }
#else
  (void)fd;
#endif
}

void AdviseWillNeed(int fd, uint64_t offset, uint64_t len) {
#ifdef POSIX_FADV_WILLNEED
  if (fd >= 0 && len > 0) {
    // ignore-status: advisory hint; failure must not fail the read path
    (void)posix_fadvise(fd, static_cast<off_t>(offset),
                        static_cast<off_t>(len), POSIX_FADV_WILLNEED);
  }
#else
  (void)fd;
  (void)offset;
  (void)len;
#endif
}

void AdviseFileWillNeed(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // the caller's own open will report the real error
  AdviseWillNeed(fd, 0, 0);  // len 0 = to end of file
  ::close(fd);
}

bool PreadExact(int fd, uint64_t offset, char* dst, size_t len) {
  while (len > 0) {
    const ssize_t got =
        ::pread(fd, dst, len, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF inside the requested range
    dst += got;
    offset += static_cast<uint64_t>(got);
    len -= static_cast<size_t>(got);
  }
  return true;
}

}  // namespace spider
