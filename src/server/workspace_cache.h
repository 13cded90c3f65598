// The daemon's view of persisted disk workspaces: one long-lived
// SpiderSession per workspace, shared by every request that profiles it.
//
// Sharing the session is the point of running a daemon at all — the
// session owns the ValueSetExtractor cache, so two jobs against the same
// workspace extract and sort each attribute once (the extractor
// deduplicates in-flight work across threads). A session profiles its
// workspace in place, as `spider profile <workspace>` does: the sorted set
// files and the profile (spider_profile.manifest) live in the workspace
// directory next to spider_store.manifest. They survive across jobs,
// sessions, daemon restarts and CLI runs, so an evicted-and-reopened
// workspace — or a CLI run after a daemon job, and the reverse —
// revalidates fingerprints instead of re-extracting.
//
// A session serves its workspace as committed. Every GetOrOpen compares
// the manifest's identity (device, inode, size, mtime) with the one the
// session was opened at; a commit renames a fresh manifest into place, so
// after any import or append — a daemon job's or `spider import --append`
// beside the daemon — the next request reopens the grown catalog.
//
// The cache is bounded: beyond `max_sessions` open sessions the least
// recently used one is evicted. Sessions are handed out as shared_ptr, so
// a job that captured a session before its eviction keeps it alive until
// the job finishes; the cache just stops handing it to new requests.

#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/ind/session.h"

namespace spider {

/// \brief Maps workspace names to open sessions under one root directory.
///
/// A workspace is a subdirectory of the root that holds a disk catalog
/// (DiskCatalogWriter layout). Thread-safe; sessions are handed out as
/// shared_ptr, so a session stays valid for whoever holds it after the
/// cache dropped it.
class WorkspaceCache {
 public:
  /// `max_sessions` bounds the number of concurrently open sessions
  /// (0 = unbounded — the pre-eviction behavior).
  explicit WorkspaceCache(std::filesystem::path root, int max_sessions = 0);

  /// True when `name` is usable as a workspace name: non-empty, no path
  /// separators, no leading dot (names map to subdirectories).
  static bool ValidName(std::string_view name);

  /// The open (or newly opened) session for `name`; a session whose
  /// workspace was committed since it opened is dropped and the workspace
  /// reopened. NotFound when the subdirectory is missing or not a disk
  /// catalog. Opening may evict the least recently used session once the
  /// cache is full; holders of a dropped session's shared_ptr are
  /// unaffected.
  [[nodiscard]]
  Result<std::shared_ptr<SpiderSession>> GetOrOpen(const std::string& name)
      SPIDER_EXCLUDES(mutex_);

  /// Open sessions currently cached (for tests and introspection).
  [[nodiscard]]
  int64_t open_session_count() const SPIDER_EXCLUDES(mutex_);

  /// Sorted names of the root's disk-catalog subdirectories (on-disk
  /// truth, not just what is open).
  [[nodiscard]]
  Result<std::vector<std::string>> List() const;

  /// The directory a workspace's data, sorted sets and profile live in.
  std::filesystem::path WorkspacePath(const std::string& name) const;

  const std::filesystem::path& root() const { return root_; }

 private:
  struct Entry {
    std::shared_ptr<SpiderSession> session;
    /// The manifest the session's catalog was opened from, stat'ed before
    /// the open: a commit racing the open only costs one extra reopen. A
    /// commit renames a freshly written manifest over the old one while
    /// the old file still holds its inode, so every commit changes this.
    FileIdentity manifest;
    /// Logical timestamp of the last GetOrOpen hit (monotonic counter, not
    /// wall clock — eviction only needs relative order).
    uint64_t last_used = 0;
  };

  const std::filesystem::path root_;
  const int max_sessions_;
  mutable Mutex mutex_;
  uint64_t clock_ SPIDER_GUARDED_BY(mutex_) = 0;
  std::map<std::string, Entry> sessions_ SPIDER_GUARDED_BY(mutex_);
};

}  // namespace spider
