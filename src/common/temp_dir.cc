#include "src/common/temp_dir.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <vector>

namespace spider {

namespace fs = std::filesystem;

Result<std::unique_ptr<TempDir>> TempDir::Make(const std::string& prefix,
                                               const std::string& parent) {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  fs::path root = parent.empty() ? fs::temp_directory_path(ec) : fs::path(parent);
  if (ec) return Status::IOError("cannot resolve temp root: " + ec.message());

  uint64_t stamp = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  for (int attempt = 0; attempt < 100; ++attempt) {
    uint64_t id = counter.fetch_add(1);
    fs::path candidate =
        root / (prefix + "-" + std::to_string(stamp) + "-" + std::to_string(id));
    if (fs::create_directories(candidate, ec) && !ec) {
      return std::unique_ptr<TempDir>(new TempDir(std::move(candidate)));
    }
  }
  return Status::IOError("could not create unique temp dir under " +
                         root.string());
}

namespace {

/// Opens `dir` and takes an exclusive flock on it without blocking; an
/// empty ScopedFd when the directory is gone or another owner holds it.
ScopedFd TryLockDir(const fs::path& dir) {
  ScopedFd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (fd.get() < 0) return fd;
  while (::flock(fd.get(), LOCK_EX | LOCK_NB) != 0) {
    if (errno != EINTR) return ScopedFd();
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<TempDir>> TempDir::MakeShared(
    const fs::path& parent, const std::string& prefix) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(parent, ec), end; !ec && it != end;
       it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  const std::string stale_prefix = prefix + ".tmp-";
  for (const std::string& name : names) {
    if (name.rfind(stale_prefix, 0) != 0) continue;
    const fs::path dir = parent / name;
    std::error_code entry_ec;
    if (!fs::is_directory(dir, entry_ec)) continue;
    ScopedFd owner_gone = TryLockDir(dir);
    if (owner_gone.get() < 0) continue;  // alive, or already swept
    // Its files beside it go first, while the directory still holds the
    // name, so no new owner can take the name and lose files to the sweep.
    const std::string own_prefix = name + ".";
    for (const std::string& sibling : names) {
      if (sibling.rfind(own_prefix, 0) == 0) {
        fs::remove(parent / sibling, entry_ec);  // best effort
      }
    }
    fs::remove_all(dir, entry_ec);  // best effort
  }

  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate = UniqueTempPath(parent / prefix);
    if (!fs::create_directory(candidate, ec)) {
      if (ec) break;
      continue;  // a dead process with our pid left this name behind
    }
    // A concurrent sweep may take the fresh directory's lock before we do
    // and remove it; the lock is ours only if the path still names the
    // directory we locked.
    ScopedFd lock = TryLockDir(candidate);
    struct stat locked;
    struct stat named;
    if (lock.get() >= 0 && ::fstat(lock.get(), &locked) == 0 &&
        ::stat(candidate.c_str(), &named) == 0 &&
        locked.st_dev == named.st_dev && locked.st_ino == named.st_ino) {
      return std::unique_ptr<TempDir>(
          new TempDir(std::move(candidate), std::move(lock)));
    }
  }
  return Status::IOError("cannot create a scratch directory under " +
                         parent.string() +
                         (ec ? ": " + ec.message() : std::string()));
}

TempDir::~TempDir() {
  if (keep_) return;
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort
}

}  // namespace spider
