#include "src/common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <fstream>
#include <string>

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

std::filesystem::path UniqueTempPath(const std::filesystem::path& final_path) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  std::filesystem::path temp = final_path;
  temp += ".tmp-" + std::to_string(::getpid()) + "-" + std::to_string(n);
  return temp;
}

Result<std::string> ReadFileBytes(const std::filesystem::path& path) {
  // Only a regular file: the end offset of a directory standing in its
  // place would size an allocation of up to 2^63 bytes.
  std::error_code ec;
  std::ifstream in;
  if (std::filesystem::is_regular_file(path, ec)) {
    in.open(path, std::ios::binary | std::ios::ate);
  }
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path.string());
  }
  const std::streamoff size = in.tellg();
  std::string bytes;
  if (size >= 0) bytes.resize(static_cast<size_t>(size));
  if (size < 0 || !in.seekg(0) || !in.read(bytes.data(), size)) {
    return Status::IOError("cannot read " + path.string());
  }
  return bytes;
}

Status WriteFileAtomically(const std::filesystem::path& path,
                           std::string_view bytes) {
  const std::filesystem::path tmp = UniqueTempPath(path);
  Status status;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create " + tmp.string());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (out.fail()) status = Status::IOError("failed writing " + tmp.string());
  }
  std::error_code ec;
  if (status.ok()) {
    std::filesystem::rename(tmp, path, ec);
    if (!ec) return Status::OK();
    status = Status::IOError("cannot rename " + tmp.string() + " to " +
                             path.string() + ": " + ec.message());
  }
  std::filesystem::remove(tmp, ec);  // best effort
  return status;
}

std::optional<FileIdentity> StatFileIdentity(
    const std::filesystem::path& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return std::nullopt;
  }
  FileIdentity identity;
  identity.device = static_cast<uint64_t>(st.st_dev);
  identity.inode = static_cast<uint64_t>(st.st_ino);
  identity.size = static_cast<int64_t>(st.st_size);
  identity.mtime_sec = static_cast<int64_t>(st.st_mtim.tv_sec);
  identity.mtime_nsec = static_cast<int64_t>(st.st_mtim.tv_nsec);
  return identity;
}

}  // namespace spider
