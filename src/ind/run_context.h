// Cross-cutting run controls shared by every verification approach:
// wall-clock budget, cooperative cancellation and progress reporting.
//
// The paper aborts runs that exceed a time limit ("> 7 days"); originally
// only the SQL approaches implemented that. RunContext gives all
// algorithms the same semantics: when the budget expires or the caller
// cancels, Run() returns a *partial* result with finished = false — every
// dependency already reported is confirmed, the rest are undecided.
//
// A session run builds one RunContext and hands that same object to every
// phase and every concurrent partition. Algorithms only poll
// (ShouldStop) and step (Step); the owner of the context starts each
// phase's progress count (Begin) and times phases from its clock.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "src/common/mutex.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_annotations.h"

namespace spider {

/// \brief Thread-safe cancellation flag. The owner keeps it alive for the
/// duration of the run; any thread may call Cancel() while an algorithm
/// polls cancelled() between candidates (or value groups).
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Snapshot handed to progress callbacks.
struct RunProgress {
  /// Units of work completed in the current phase: candidates decided for
  /// unary IND verification, tests run for the other phases.
  int64_t done = 0;
  /// Total units of the current phase, 0 when unknown up front.
  int64_t total = 0;
  /// Wall-clock seconds since the context was built (for a session run:
  /// since Run() entry).
  double elapsed_seconds = 0;
};

using ProgressCallback = std::function<void(const RunProgress&)>;

/// \brief Per-run controls passed to every algorithm's Run. A default-built
/// context is unbounded and silent. Its clock starts at construction.
class RunContext {
 public:
  /// Wall-clock budget in seconds from construction; 0 = unlimited.
  double time_budget_seconds = 0;

  /// Optional cancellation flag, polled cooperatively. Not owned.
  const CancellationToken* cancel = nullptr;

  /// Optional progress sink; invoked from whichever thread calls Step()
  /// (serialized by an internal mutex), so it must be cheap and
  /// non-reentrant.
  ProgressCallback progress;

  /// Starts a phase's progress count: `done` back to 0 out of `total_work`
  /// (0 = unknown). Called by the context's owner between phases, never
  /// by an algorithm; the clock keeps running.
  void Begin(int64_t total_work) SPIDER_EXCLUDES(progress_mutex_) {
    MutexLock lock(&progress_mutex_);
    total_ = total_work;
    done_ = 0;
  }

  /// True when the run should end early: the caller cancelled or the
  /// budget expired.
  bool ShouldStop() const {
    if (cancel != nullptr && cancel->cancelled()) return true;
    return time_budget_seconds > 0 &&
           watch_.ElapsedSeconds() > time_budget_seconds;
  }

  /// Marks `units` of work done and fires the progress callback. Without a
  /// callback nothing reads the count, so this does nothing. Thread-safe:
  /// the count-and-report pair runs under one mutex, so threads sharing a
  /// context observe monotonically non-decreasing `done` values.
  void Step(int64_t units = 1) SPIDER_EXCLUDES(progress_mutex_) {
    if (!progress) return;
    MutexLock lock(&progress_mutex_);
    done_ += units;
    progress(RunProgress{done_, total_, watch_.ElapsedSeconds()});
  }

  double elapsed_seconds() const { return watch_.ElapsedSeconds(); }

 private:
  Stopwatch watch_;
  Mutex progress_mutex_;
  int64_t total_ SPIDER_GUARDED_BY(progress_mutex_) = 0;
  int64_t done_ SPIDER_GUARDED_BY(progress_mutex_) = 0;
};

}  // namespace spider
