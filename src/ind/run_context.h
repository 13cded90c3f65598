// Cross-cutting run controls shared by every IND verification approach:
// wall-clock budget, cooperative cancellation and progress reporting.
//
// The paper aborts runs that exceed a time limit ("> 7 days"); originally
// only the SQL approaches implemented that. RunContext gives all
// algorithms the same semantics: when the budget expires or the caller
// cancels, Run() returns a *partial* IndRunResult with finished = false —
// every IND already in `satisfied` is confirmed, the remaining candidates
// are simply undecided.

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
  /// Units of work completed so far (candidates for the per-candidate
  /// algorithms, blocks / value groups for the streaming ones).
  int64_t done = 0;
  /// Total units of work, 0 when unknown up front.
  int64_t total = 0;
  /// Wall-clock seconds since Begin().
  double elapsed_seconds = 0;
};

using ProgressCallback = std::function<void(const RunProgress&)>;

/// \brief Per-run controls passed to IndAlgorithm::Run. A default-built
/// context is unbounded and silent, matching the old behaviour.
class RunContext {
 public:
  /// Wall-clock budget in seconds; 0 = unlimited. The clock starts at
  /// Begin(), which every algorithm calls on entry.
  double time_budget_seconds = 0;

  /// Optional cancellation flag, polled cooperatively. Not owned.
  const CancellationToken* cancel = nullptr;

  /// Optional progress sink; invoked from whichever thread calls Step()
  /// (serialized by an internal mutex), so it must be cheap and
  /// non-reentrant.
  ProgressCallback progress;

  /// (Re)starts the budget clock and records the expected work size. Not
  /// thread-safe: call before handing the context to worker threads.
  void Begin(int64_t total_work) {
    watch_.Start();
    total_ = total_work;
    done_.store(0, std::memory_order_relaxed);
  }

  /// True when the run should end early: the caller cancelled or the
  /// budget expired.
  bool ShouldStop() const {
    if (cancel != nullptr && cancel->cancelled()) return true;
    return time_budget_seconds > 0 &&
           watch_.ElapsedSeconds() > time_budget_seconds;
  }

  /// Marks `units` of work done and fires the progress callback if set.
  /// Thread-safe: the done counter is atomic, and when a callback is set
  /// the count-and-report pair runs under one mutex, so threads sharing a
  /// context observe monotonically non-decreasing `done` values.
  void Step(int64_t units = 1) SPIDER_EXCLUDES(progress_mutex_) {
    if (!progress) {
      done_.fetch_add(units, std::memory_order_relaxed);
      return;
    }
    MutexLock lock(&progress_mutex_);
    const int64_t done =
        done_.fetch_add(units, std::memory_order_relaxed) + units;
    progress(RunProgress{done, total_, watch_.ElapsedSeconds()});
  }

  double elapsed_seconds() const { return watch_.ElapsedSeconds(); }

 private:
  Stopwatch watch_;
  /// Written by Begin() before worker threads exist, read-only afterwards.
  int64_t total_ = 0;
  /// Atomic so Step() needs no lock on the no-callback fast path; the
  /// fetch_add + callback pair is additionally serialized by
  /// progress_mutex_ so observers see monotonically non-decreasing values.
  std::atomic<int64_t> done_{0};
  Mutex progress_mutex_;
};

}  // namespace spider
