// Asynchronous job execution for spiderd: POST /jobs enqueues work onto a
// fixed ThreadPool, GET /jobs/<id> polls a snapshot, DELETE cancels.
//
// A job is a closure returning the finished report document (a JSON
// string); the manager owns the lifecycle — queued → running →
// finished/failed/cancelled — plus the per-job CancellationToken and
// progress counters the closure reports through. Shutdown() cancels every
// token and drains the pool, so in-flight profiling runs come back as
// partial (finished=false) reports instead of being abandoned; that is the
// SIGINT/SIGTERM path.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/ind/run_context.h"

namespace spider {

/// Lifecycle states a job moves through (strictly forward).
enum class JobState { kQueued, kRunning, kFinished, kFailed, kCancelled };

std::string_view JobStateName(JobState state);

/// What a job's closure sees: its cancellation token (wire it into
/// RunOptions::cancel) and a progress sink (wire it into
/// RunOptions::progress).
struct JobControl {
  const CancellationToken* cancel = nullptr;
  ProgressCallback progress;
};

/// The work itself: runs on a pool worker, returns the report JSON
/// document on success. A cancelled run should still return its partial
/// report — the manager records the state as kCancelled either way.
using JobFn = std::function<Result<std::string>(const JobControl&)>;

/// Immutable copy of a job's externally visible state.
struct JobSnapshot {
  int64_t id = 0;
  std::string workspace;
  /// Short label for listings, e.g. "profile spider-merge".
  std::string label;
  JobState state = JobState::kQueued;
  /// Failure reason; empty unless state == kFailed.
  std::string error;
  /// The report document; empty until kFinished/kCancelled with a report.
  std::string report_json;
  /// Progress: work units done / total of the run's current phase, read
  /// as one pair (0 total = unknown).
  int64_t done = 0;
  int64_t total = 0;
};

/// \brief Owns the job table and the worker pool jobs execute on.
///
/// Thread-safe throughout: the HTTP thread submits/polls/cancels while
/// pool workers run jobs.
class JobManager {
 public:
  explicit JobManager(int worker_threads);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueues `fn` and returns its job id. Rejected after Shutdown().
  [[nodiscard]]
  Result<int64_t> Submit(std::string workspace, std::string label, JobFn fn)
      SPIDER_EXCLUDES(mutex_);

  /// Snapshot of one job, or nullopt for an unknown id.
  std::optional<JobSnapshot> Get(int64_t id) const SPIDER_EXCLUDES(mutex_);

  /// Snapshots of all jobs, ascending by id.
  std::vector<JobSnapshot> List() const SPIDER_EXCLUDES(mutex_);

  /// Cancels a queued or running job (cooperative: the run returns a
  /// partial report at its next cancellation poll). False for unknown ids;
  /// true (idempotently) for already-terminal jobs.
  bool Cancel(int64_t id) SPIDER_EXCLUDES(mutex_);

  /// Cancels everything and drains the pool. Idempotent; called by the
  /// daemon's signal path, and by the destructor as a backstop.
  void Shutdown();

 private:
  struct Job {
    int64_t id = 0;
    std::string workspace;
    std::string label;
    CancellationToken token;
    /// The run's last progress report, one done/total pair under its own
    /// lock: a poll never pairs one phase's count with another's total,
    /// and progress callbacks never wait on the job table's mutex.
    mutable Mutex progress_mutex;
    int64_t done SPIDER_GUARDED_BY(progress_mutex) = 0;
    int64_t total SPIDER_GUARDED_BY(progress_mutex) = 0;
    JobState state SPIDER_GUARDED_BY(mutex_) = JobState::kQueued;
    std::string error SPIDER_GUARDED_BY(mutex_);
    std::string report_json SPIDER_GUARDED_BY(mutex_);
  };

  JobSnapshot SnapshotLocked(const Job& job) const SPIDER_REQUIRES(mutex_);
  void Execute(Job* job, const JobFn& fn) SPIDER_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  /// unique_ptr values: Job addresses must be stable while pool tasks and
  /// snapshot calls hold raw pointers.
  std::map<int64_t, std::unique_ptr<Job>> jobs_ SPIDER_GUARDED_BY(mutex_);
  int64_t next_id_ SPIDER_GUARDED_BY(mutex_) = 1;
  bool shutdown_ SPIDER_GUARDED_BY(mutex_) = false;
  /// Last member: destroyed (drained) before the job table it points into.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spider
