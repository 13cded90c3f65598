// Pins every work counter of the unary IND verifiers on one fixed generated
// catalog: each RunCounters field plus the session's partitions,
// candidates_revalidated and verdicts_reused, across both backends, one and
// four threads, the blockwise single-pass budget, and a cold then warm run
// over a persisted disk profile. A refactor of the candidate, partition or
// verifier plumbing must leave every one of these numbers where it is.

#include <gtest/gtest.h>

#include <string>

#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/ind/session.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

datagen::PdbLikeOptions PinnedShape() {
  datagen::PdbLikeOptions options;
  options.entries = 2500;
  options.category_tables = 6;
  options.clean_entry_id_tables = 2;
  return options;
}

// Every pinned number of one report, in one comparable line.
std::string Pinned(const SessionReport& report) {
  const RunCounters& c = report.run.counters;
  return "tuples_read=" + std::to_string(c.tuples_read) +
         " blocks_skipped=" + std::to_string(c.blocks_skipped) +
         " comparisons=" + std::to_string(c.comparisons) +
         " candidates_tested=" + std::to_string(c.candidates_tested) +
         " pretest_pruned=" + std::to_string(c.candidates_pretest_pruned) +
         " engine_rows=" + std::to_string(c.engine_rows_scanned) +
         " files_opened=" + std::to_string(c.files_opened) +
         " peak_open_files=" + std::to_string(c.peak_open_files) +
         " sets_extracted=" + std::to_string(c.sets_extracted) +
         " sets_reused=" + std::to_string(c.sets_reused) +
         " partitions=" + std::to_string(report.partitions) +
         " revalidated=" + std::to_string(report.candidates_revalidated) +
         " reused=" + std::to_string(report.verdicts_reused) +
         " satisfied=" + std::to_string(report.run.satisfied.size());
}

struct PinCase {
  const char* approach;
  int max_open_files;
  bool disk;
  int threads;
  const char* expected;
};

class CounterPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto memory = datagen::MakePdbLike(PinnedShape());
    ASSERT_TRUE(memory.ok()) << memory.status().ToString();
    memory_ = memory->release();
    auto dir = TempDir::Make("spider-counter-pin");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = dir->release();
    auto writer = DiskCatalogWriter::Create(dir_->path() / "ws", "pdb");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(datagen::WritePdbLike(PinnedShape(), **writer).ok());
    auto disk = (*writer)->Finish();
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    disk_ = disk->release();
  }

  static void TearDownTestSuite() {
    delete disk_;
    delete memory_;
    delete dir_;
  }

  static std::string Run(const Catalog& catalog, SessionOptions session_options,
                         const char* approach, int max_open_files,
                         int threads) {
    SpiderSession session(catalog, std::move(session_options));
    RunOptions options;
    options.approach = approach;
    options.max_open_files = max_open_files;
    options.threads = threads;
    auto report = session.Run(options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return "";
    EXPECT_TRUE(report->run.finished);
    EXPECT_TRUE(report->profile_save_error.empty());
    return Pinned(*report);
  }

  static Catalog* memory_;
  static Catalog* disk_;
  static TempDir* dir_;
};

Catalog* CounterPinTest::memory_ = nullptr;
Catalog* CounterPinTest::disk_ = nullptr;
TempDir* CounterPinTest::dir_ = nullptr;

TEST_F(CounterPinTest, EveryUnaryVerifierBackendAndThreadCount) {
  const PinCase kCases[] = {
      {"spider-merge", 0, false, 1,
       "tuples_read=50893 blocks_skipped=2 comparisons=29155 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=48 "
       "peak_open_files=48 sets_extracted=48 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"spider-merge", 0, false, 4,
       "tuples_read=167972 blocks_skipped=7 comparisons=86257 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=129 peak_open_files=129 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"spider-merge", 0, true, 1,
       "tuples_read=50893 blocks_skipped=2 comparisons=29155 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=48 "
       "peak_open_files=48 sets_extracted=48 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"spider-merge", 0, true, 4,
       "tuples_read=167972 blocks_skipped=7 comparisons=86257 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=129 peak_open_files=129 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 0, false, 1,
       "tuples_read=75328 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=74 "
       "peak_open_files=74 sets_extracted=48 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 0, false, 4,
       "tuples_read=213222 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=155 peak_open_files=155 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 0, true, 1,
       "tuples_read=75328 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=74 "
       "peak_open_files=74 sets_extracted=48 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 0, true, 4,
       "tuples_read=213222 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=155 peak_open_files=155 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 8, false, 1,
       "tuples_read=737305 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=991 peak_open_files=8 sets_extracted=48 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 8, false, 4,
       "tuples_read=737649 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=993 peak_open_files=32 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 8, true, 1,
       "tuples_read=737305 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=991 peak_open_files=8 sets_extracted=48 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"single-pass", 8, true, 4,
       "tuples_read=737649 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=993 peak_open_files=32 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"brute-force", 0, false, 1,
       "tuples_read=770187 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=1676 peak_open_files=2 sets_extracted=48 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"brute-force", 0, false, 4,
       "tuples_read=770187 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=1676 peak_open_files=8 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"brute-force", 0, true, 1,
       "tuples_read=770187 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=1676 peak_open_files=2 sets_extracted=48 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"brute-force", 0, true, 4,
       "tuples_read=770187 blocks_skipped=0 comparisons=686035 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
       "files_opened=1676 peak_open_files=8 sets_extracted=48 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"de-marchi", 0, false, 1,
       "tuples_read=101616 blocks_skipped=0 comparisons=38752 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=0 "
       "peak_open_files=0 sets_extracted=0 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"de-marchi", 0, false, 4,
       "tuples_read=273664 blocks_skipped=0 comparisons=38755 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=0 "
       "peak_open_files=0 sets_extracted=0 sets_reused=0 partitions=4 "
       "revalidated=838 reused=0 satisfied=105"},
      {"de-marchi", 0, true, 1,
       "tuples_read=101616 blocks_skipped=0 comparisons=38752 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=0 "
       "peak_open_files=0 sets_extracted=0 sets_reused=0 partitions=1 "
       "revalidated=838 reused=0 satisfied=105"},
      {"de-marchi", 0, true, 4,
       "tuples_read=273664 blocks_skipped=0 comparisons=38755 "
       "candidates_tested=838 pretest_pruned=0 engine_rows=0 files_opened=0 "
       "peak_open_files=0 sets_extracted=0 sets_reused=0 partitions=4 "
       "revalidated=838 reused=0 satisfied=105"},
      {"bell-brockhausen", 0, false, 1,
       "tuples_read=0 blocks_skipped=0 comparisons=424080 "
       "candidates_tested=217 pretest_pruned=621 engine_rows=895161 "
       "files_opened=0 peak_open_files=0 sets_extracted=0 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"bell-brockhausen", 0, false, 4,
       "tuples_read=0 blocks_skipped=0 comparisons=510630 "
       "candidates_tested=260 pretest_pruned=578 engine_rows=1077015 "
       "files_opened=0 peak_open_files=0 sets_extracted=0 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
      {"bell-brockhausen", 0, true, 1,
       "tuples_read=0 blocks_skipped=0 comparisons=424080 "
       "candidates_tested=217 pretest_pruned=621 engine_rows=895161 "
       "files_opened=0 peak_open_files=0 sets_extracted=0 sets_reused=0 "
       "partitions=1 revalidated=838 reused=0 satisfied=105"},
      {"bell-brockhausen", 0, true, 4,
       "tuples_read=0 blocks_skipped=0 comparisons=510630 "
       "candidates_tested=260 pretest_pruned=578 engine_rows=1077015 "
       "files_opened=0 peak_open_files=0 sets_extracted=0 sets_reused=0 "
       "partitions=4 revalidated=838 reused=0 satisfied=105"},
  };
  for (const PinCase& pin : kCases) {
    const Catalog& catalog = pin.disk ? *disk_ : *memory_;
    EXPECT_EQ(Run(catalog, {}, pin.approach, pin.max_open_files, pin.threads),
              pin.expected)
        << pin.approach << " max_open_files=" << pin.max_open_files
        << (pin.disk ? " disk" : " memory") << " threads=" << pin.threads;
  }
}

TEST_F(CounterPinTest, ColdThenWarmOnAPersistedDiskProfile) {
  auto work = TempDir::Make("spider-counter-pin-profile");
  ASSERT_TRUE(work.ok());
  SessionOptions session_options;
  session_options.work_dir = (*work)->path().string();
  session_options.persist_profile = true;
  EXPECT_EQ(Run(*disk_, session_options, "spider-merge", 0, 1),
            "tuples_read=50893 blocks_skipped=2 comparisons=29155 "
            "candidates_tested=838 pretest_pruned=0 engine_rows=0 "
            "files_opened=48 peak_open_files=48 sets_extracted=48 "
            "sets_reused=0 partitions=1 revalidated=838 reused=0 "
            "satisfied=105")
      << "cold";
  EXPECT_EQ(Run(*disk_, session_options, "spider-merge", 0, 4),
            "tuples_read=0 blocks_skipped=0 comparisons=0 "
            "candidates_tested=0 pretest_pruned=0 engine_rows=0 "
            "files_opened=0 peak_open_files=0 sets_extracted=0 sets_reused=0 "
            "partitions=1 revalidated=0 reused=838 satisfied=105")
      << "warm";
}

}  // namespace
}  // namespace spider
