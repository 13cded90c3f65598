// What every phase of a run returns, and the one batch driver that folds
// it: RunBatch fans independent tasks out onto an optional ThreadPool for
// the session's unary verification (one task per candidate partition) and
// cache priming (one per attribute), the levelwise n-ary expansion (one
// task per candidate of a level), the clique and zigzag expansions (one
// task per table pair) and the UCC/FD lattice searches (one task per
// table).

#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/ind/run_context.h"

namespace spider {

/// What a phase reports beside the dependencies it found.
struct RunTotals {
  /// Direct data validations performed by the n-ary expansions and the
  /// lattice searches (unary verification counts candidates_tested).
  int64_t tests = 0;
  /// Work counters, counted where the work happens: an algorithm counts
  /// its reads, and each set it had the extractor sort or reuse.
  RunCounters counters;
  /// Wall-clock seconds of the phase, set by the session from the run's
  /// clock (algorithms leave it 0).
  double seconds = 0;
  /// False when the budget expired or the run was cancelled before every
  /// candidate was decided (the paper's "> 7 days" entries); the found
  /// dependencies are then partial, every listed one confirmed.
  bool finished = true;
};

/// The result of a phase, a batch or one batch task, final when returned:
/// the dependencies it confirmed and its totals.
template <typename Item>
struct RunResult : RunTotals {
  std::vector<Item> satisfied;

  /// Folds `other` in after this result: its items appended, tests summed,
  /// counters merged, finished AND-ed.
  void Append(RunResult other) {
    satisfied.insert(satisfied.end(),
                     std::make_move_iterator(other.satisfied.begin()),
                     std::make_move_iterator(other.satisfied.end()));
    tests += other.tests;
    counters.Merge(other.counters);
    finished = finished && other.finished;
  }
};

/// The one place the concurrent peak-open-files policy lives: serial
/// batches keep the per-task max that RunCounters::Merge produced, but
/// concurrent tasks hold their sorted sets simultaneously. At most
/// pool->size() tasks are ever live at once, so the tight
/// scheduling-independent high-water bound is the sum of the batch's
/// min(pool size, batch size) LARGEST per-task peaks — not the sum over the
/// whole batch, which overstated the peak by the batch/pool ratio (a
/// 100-pair batch on 4 workers reported 200 open files when no schedule can
/// exceed 8). Deterministic for a given (peaks, pool size), so
/// counter-parity tests and the bench regression gate stay exact.
inline void ApplyConcurrentPeakBound(const ThreadPool* pool,
                                     std::vector<int64_t> per_task_peaks,
                                     RunCounters& counters) {
  if (pool == nullptr || per_task_peaks.empty()) return;
  const size_t live = std::min(per_task_peaks.size(),
                               static_cast<size_t>(pool->size()));
  std::partial_sort(per_task_peaks.begin(),
                    per_task_peaks.begin() + static_cast<ptrdiff_t>(live),
                    per_task_peaks.end(), std::greater<int64_t>());
  int64_t high_water = 0;
  for (size_t i = 0; i < live; ++i) high_water += per_task_peaks[i];
  if (counters.peak_open_files < high_water) {
    counters.peak_open_files = high_water;
  }
}

/// Runs `count` independent tasks (`task(i) -> Result<RunResult<Item>>`),
/// serially when `pool` is null, concurrently on the pool otherwise.
/// `context` is polled before each task; a task skipped by a stop counts as
/// unfinished. Results fold in task order (RunResult::Append), then the
/// concurrent peak bound applies, so a batch is byte-identical at any
/// thread count. Fails with the first failed task's status.
template <typename Item, typename Task>
Result<RunResult<Item>> RunBatch(ThreadPool* pool, size_t count,
                                 const RunContext& context, Task&& task) {
  auto run_one = [&context, &task](size_t i) -> Result<RunResult<Item>> {
    if (context.ShouldStop()) {
      RunResult<Item> skipped;
      skipped.finished = false;
      return skipped;
    }
    return task(i);
  };
  std::vector<Result<RunResult<Item>>> results;
  results.reserve(count);
  if (pool == nullptr || count < 2) {
    for (size_t i = 0; i < count; ++i) results.push_back(run_one(i));
  } else {
    std::vector<std::future<Result<RunResult<Item>>>> futures;
    futures.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      futures.push_back(pool->Submit([&run_one, i] { return run_one(i); }));
    }
    for (auto& future : futures) results.push_back(future.get());
  }

  RunResult<Item> folded;
  std::vector<int64_t> peaks;
  peaks.reserve(count);
  for (Result<RunResult<Item>>& result : results) {
    SPIDER_RETURN_NOT_OK(result.status());
    peaks.push_back(result->counters.peak_open_files);
    folded.Append(std::move(result).value());
  }
  ApplyConcurrentPeakBound(pool, std::move(peaks), folded.counters);
  return folded;
}

}  // namespace spider
