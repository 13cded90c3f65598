#include "src/server/job_manager.h"

#include <utility>

#include "src/common/logging.h"

namespace spider {

std::string_view JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kFinished:
      return "finished";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

JobManager::JobManager(int worker_threads)
    : pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreadCount(worker_threads))) {}

JobManager::~JobManager() { Shutdown(); }

Result<int64_t> JobManager::Submit(std::string workspace, std::string label,
                                   JobFn fn) {
  MutexLock lock(&mutex_);
  if (shutdown_) {
    return Status::InvalidArgument("job manager is shutting down");
  }
  const int64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->workspace = std::move(workspace);
  job->label = std::move(label);
  Job* raw = job.get();
  jobs_.emplace(id, std::move(job));
  // Enqueued under the lock so Shutdown() can never reset the pool
  // between the shutdown_ check above and this call. The closure owns its
  // JobFn; `this` and `raw` stay valid because the pool drains before the
  // job table is destroyed.
  pool_->Schedule([this, raw, fn = std::move(fn)] { Execute(raw, fn); });
  return id;
}

void JobManager::Execute(Job* job, const JobFn& fn) {
  {
    MutexLock lock(&mutex_);
    job->state = JobState::kRunning;
  }
  JobControl control;
  control.cancel = &job->token;
  control.progress = [job](const RunProgress& progress) {
    MutexLock lock(&job->progress_mutex);
    job->done = progress.done;
    job->total = progress.total;
  };
  Result<std::string> report = fn(control);

  MutexLock lock(&mutex_);
  if (!report.ok()) {
    job->state = JobState::kFailed;
    job->error = report.status().ToString();
    return;
  }
  job->report_json = std::move(report).value();
  job->state =
      job->token.cancelled() ? JobState::kCancelled : JobState::kFinished;
}

JobSnapshot JobManager::SnapshotLocked(const Job& job) const {
  JobSnapshot out;
  out.id = job.id;
  out.workspace = job.workspace;
  out.label = job.label;
  out.state = job.state;
  out.error = job.error;
  out.report_json = job.report_json;
  MutexLock lock(&job.progress_mutex);
  out.done = job.done;
  out.total = job.total;
  return out;
}

std::optional<JobSnapshot> JobManager::Get(int64_t id) const {
  MutexLock lock(&mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return SnapshotLocked(*it->second);
}

std::vector<JobSnapshot> JobManager::List() const {
  MutexLock lock(&mutex_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [_, job] : jobs_) out.push_back(SnapshotLocked(*job));
  return out;
}

bool JobManager::Cancel(int64_t id) {
  MutexLock lock(&mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->token.Cancel();
  return true;
}

void JobManager::Shutdown() {
  {
    MutexLock lock(&mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    for (const auto& [_, job] : jobs_) job->token.Cancel();
  }
  // Drain outside the lock: queued jobs still execute (their tokens are
  // cancelled, so runs return partial reports at the next poll), and
  // Execute() needs the mutex to record those final states.
  pool_.reset();
  SPIDER_LOG(Info) << "job manager drained";
}

}  // namespace spider
