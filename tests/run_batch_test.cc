// RunBatch, the one batch driver: every case runs serially (no pool) and on
// pools of 2 and 4 workers, and the fold must not depend on which.

#include "src/ind/run_batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace spider {
namespace {

using namespace std::chrono_literals;

class RunBatchTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > 0) pool_ = std::make_unique<ThreadPool>(GetParam());
  }

  ThreadPool* pool() const { return pool_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(RunBatchTest, FoldsOutcomesInTaskOrder) {
  constexpr size_t kTasks = 6;
  RunContext context;
  auto batch = RunBatch<int>(
      pool(), kTasks, context, [](size_t i) -> Result<RunResult<int>> {
        // Earlier tasks finish later on a pool: the fold must still follow
        // task order.
        std::this_thread::sleep_for((kTasks - i) * 2ms);
        RunResult<int> outcome;
        outcome.satisfied = {static_cast<int>(2 * i),
                             static_cast<int>(2 * i + 1)};
        outcome.tests = static_cast<int64_t>(i) + 1;
        outcome.counters.tuples_read = int64_t{1} << i;
        outcome.counters.files_opened = 1;
        outcome.finished = i != 4;
        return outcome;
      });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->satisfied,
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(batch->tests, 1 + 2 + 3 + 4 + 5 + 6);
  EXPECT_EQ(batch->counters.tuples_read, (int64_t{1} << kTasks) - 1);
  EXPECT_EQ(batch->counters.files_opened, static_cast<int64_t>(kTasks));
  EXPECT_FALSE(batch->finished);
}

TEST_P(RunBatchTest, AllFinishedTasksFoldFinished) {
  RunContext context;
  auto batch = RunBatch<int>(pool(), 3, context,
                             [](size_t i) -> Result<RunResult<int>> {
                               RunResult<int> outcome;
                               outcome.satisfied = {static_cast<int>(i)};
                               return outcome;
                             });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->satisfied, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(batch->finished);
}

TEST_P(RunBatchTest, TaskSkippedByCancelledTokenNeverRunsAndIsUnfinished) {
  CancellationToken token;
  token.Cancel();
  RunContext context;
  context.cancel = &token;
  std::atomic<int> ran{0};
  auto batch = RunBatch<int>(pool(), 4, context,
                             [&ran](size_t i) -> Result<RunResult<int>> {
                               ran.fetch_add(1);
                               RunResult<int> outcome;
                               outcome.satisfied = {static_cast<int>(i)};
                               outcome.tests = 1;
                               return outcome;
                             });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(batch->satisfied.empty());
  EXPECT_EQ(batch->tests, 0);
  EXPECT_FALSE(batch->finished);
}

TEST_P(RunBatchTest, ReturnsTheFirstFailingTasksStatus) {
  RunContext context;
  auto batch = RunBatch<int>(
      pool(), 4, context, [](size_t i) -> Result<RunResult<int>> {
        if (i == 1) {
          // Fails last on a pool; it is still the first failure in task
          // order.
          std::this_thread::sleep_for(20ms);
          return Status::IOError("task 1");
        }
        if (i == 3) return Status::InvalidArgument("task 3");
        return RunResult<int>{};
      });
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsIOError()) << batch.status().ToString();
  EXPECT_EQ(batch.status().message(), "task 1");
}

TEST_P(RunBatchTest, PeakOpenFilesFoldsToTheConcurrentBound) {
  const std::vector<int64_t> peaks = {5, 1, 7, 3};
  RunContext context;
  auto batch = RunBatch<int>(pool(), peaks.size(), context,
                             [&peaks](size_t i) -> Result<RunResult<int>> {
                               RunResult<int> outcome;
                               outcome.counters.peak_open_files = peaks[i];
                               return outcome;
                             });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Serially one task holds its files at a time; on n workers the n
  // largest peaks can be open together.
  const int64_t expected = GetParam() == 0 ? 7 : GetParam() == 2 ? 12 : 16;
  EXPECT_EQ(batch->counters.peak_open_files, expected);
}

INSTANTIATE_TEST_SUITE_P(SerialAndPools, RunBatchTest,
                         ::testing::Values(0, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("serial")
                                      : "pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace spider
