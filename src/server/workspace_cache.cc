#include "src/server/workspace_cache.h"

#include <algorithm>
#include <optional>
#include <system_error>
#include <utility>

#include "src/storage/disk_store.h"

namespace spider {

WorkspaceCache::WorkspaceCache(std::filesystem::path root, int max_sessions)
    : root_(std::move(root)), max_sessions_(max_sessions) {}

bool WorkspaceCache::ValidName(std::string_view name) {
  if (name.empty() || name.size() > 255) return false;
  if (name.front() == '.') return false;
  return name.find('/') == std::string_view::npos &&
         name.find('\\') == std::string_view::npos;
}

std::filesystem::path WorkspaceCache::WorkspacePath(
    const std::string& name) const {
  return root_ / name;
}

Result<std::shared_ptr<SpiderSession>> WorkspaceCache::GetOrOpen(
    const std::string& name) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("invalid workspace name '" + name + "'");
  }
  const std::filesystem::path dir = WorkspacePath(name);
  MutexLock lock(&mutex_);
  const std::optional<FileIdentity> manifest =
      StatFileIdentity(dir / kDiskStoreManifestName);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) {
    if (manifest == it->second.manifest) {
      it->second.last_used = ++clock_;
      return it->second.session;
    }
    // Committed (or removed) since the session opened. Jobs holding the
    // old session finish on the data they started with.
    sessions_.erase(it);
  }

  if (!manifest.has_value()) {
    return Status::NotFound("workspace '" + name + "' not found under " +
                            root_.string());
  }
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          OpenDiskCatalog(dir));
  // Daemon sessions profile in place and always persist their profile:
  // eviction and restarts would otherwise throw away every extracted set
  // and verdict, and `spider profile <workspace>` reads the same files.
  SessionOptions options;
  options.work_dir = dir.string();
  options.persist_profile = true;

  // Make room before inserting: evict the least recently used session.
  // In-flight jobs hold their own shared_ptr, so eviction only affects
  // which sessions future requests can share.
  if (max_sessions_ > 0 &&
      sessions_.size() >= static_cast<size_t>(max_sessions_)) {
    auto victim = sessions_.end();
    for (auto candidate = sessions_.begin(); candidate != sessions_.end();
         ++candidate) {
      if (victim == sessions_.end() ||
          candidate->second.last_used < victim->second.last_used) {
        victim = candidate;
      }
    }
    if (victim != sessions_.end()) sessions_.erase(victim);
  }

  Entry entry;
  entry.session =
      std::make_shared<SpiderSession>(std::move(catalog), options);
  entry.manifest = *manifest;
  entry.last_used = ++clock_;
  return sessions_.emplace(name, std::move(entry)).first->second.session;
}

int64_t WorkspaceCache::open_session_count() const {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(sessions_.size());
}

Result<std::vector<std::string>> WorkspaceCache::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_, ec);
  if (ec) {
    return Status::IOError("cannot list workspace root " + root_.string() +
                           ": " + ec.message());
  }
  for (const auto& entry : it) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!ValidName(name)) continue;
    if (IsDiskCatalogDir(entry.path())) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace spider
