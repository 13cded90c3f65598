// The one batch driver behind everything that fans independent tasks out
// onto an optional ThreadPool: the session's unary verification (one task
// per candidate partition), the levelwise n-ary expansion (one task per
// candidate of a level), the clique and zigzag expansions (one task per
// table pair) and the UCC/FD lattice searches (one task per table).

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

/// What one batch task contributes, and what a whole batch folds into.
template <typename Item>
struct BatchOutcome {
  /// Dependencies the task confirmed.
  std::vector<Item> found;
  /// Direct data validations performed.
  int64_t tests = 0;
  RunCounters counters;
  /// False when the budget expired or the run was cancelled; `found` is
  /// then partial (every listed item is confirmed).
  bool finished = true;
};

/// Runs `count` independent tasks (`task(i) -> Result<BatchOutcome<Item>>`),
/// serially when `pool` is null, concurrently on the pool otherwise.
/// `context` is polled before each task; a task skipped by a stop counts as
/// unfinished. Outcomes fold in task order — found items appended, tests
/// summed, counters merged, finished AND-ed, then the concurrent peak bound
/// applied — so a batch is byte-identical at any thread count. Fails with
/// the first failed task's status.
template <typename Item, typename Task>
Result<BatchOutcome<Item>> RunBatch(ThreadPool* pool, size_t count,
                                    const RunContext& context, Task&& task) {
  auto run_one = [&context, &task](size_t i) -> Result<BatchOutcome<Item>> {
    if (context.ShouldStop()) {
      BatchOutcome<Item> skipped;
      skipped.finished = false;
      return skipped;
    }
    return task(i);
  };
  std::vector<Result<BatchOutcome<Item>>> outcomes;
  outcomes.reserve(count);
  if (pool == nullptr || count < 2) {
    for (size_t i = 0; i < count; ++i) outcomes.push_back(run_one(i));
  } else {
    std::vector<std::future<Result<BatchOutcome<Item>>>> futures;
    futures.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      futures.push_back(pool->Submit([&run_one, i] { return run_one(i); }));
    }
    for (auto& future : futures) outcomes.push_back(future.get());
  }

  BatchOutcome<Item> folded;
  std::vector<int64_t> peaks;
  peaks.reserve(count);
  for (Result<BatchOutcome<Item>>& outcome : outcomes) {
    SPIDER_RETURN_NOT_OK(outcome.status());
    folded.found.insert(folded.found.end(),
                        std::make_move_iterator(outcome->found.begin()),
                        std::make_move_iterator(outcome->found.end()));
    folded.tests += outcome->tests;
    folded.counters.Merge(outcome->counters);
    folded.finished = folded.finished && outcome->finished;
    peaks.push_back(outcome->counters.peak_open_files);
  }
  ApplyConcurrentPeakBound(pool, std::move(peaks), folded.counters);
  return folded;
}

}  // namespace spider
