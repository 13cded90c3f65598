// Parity tests for zonemap block skipping on the merge hot path: with
// skipping on or off, serial or parallel, memory- or disk-backed, the
// satisfied IND set must be byte-identical — skipping only changes how
// much of the referenced files is decoded (tuples_read down,
// blocks_skipped up). This is the acceptance bar of the block-indexed
// set-file format: a pure I/O optimization, invisible in the results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/composite_verify.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

std::string PaddedKey(const char* prefix, int n) {
  std::string digits = std::to_string(n);
  return prefix + std::string(6 - digits.size(), '0') + digits;
}

// A referenced column of `ref_values` keys with `bands` dependent columns
// that each cover a narrow slice far apart from the next: between two
// bands the spider-merge dependent frontier jumps thousands of referenced
// values ahead, which is exactly the access pattern zonemap skipping
// turns into whole-block hops.
void FillBandedCatalog(Catalog* catalog, int ref_values, int bands,
                       int band_width) {
  std::vector<std::string> pk;
  pk.reserve(static_cast<size_t>(ref_values));
  for (int i = 0; i < ref_values; ++i) pk.push_back(PaddedKey("v", i));
  testing::AddStringColumn(catalog, "parent", "pk", pk, /*unique=*/true);

  const int stride = ref_values / bands;
  for (int b = 0; b < bands; ++b) {
    std::vector<std::string> band;
    band.reserve(static_cast<size_t>(band_width));
    for (int i = 0; i < band_width; ++i) {
      band.push_back(PaddedKey("v", b * stride + i));
    }
    testing::AddStringColumn(catalog, "dep" + std::to_string(b), "fk", band);
  }
}

RunOptions SkipOptions(bool block_skip, int threads) {
  RunOptions options;
  options.approach = "spider-merge";
  options.block_skip = block_skip;
  options.threads = threads;
  // The range pretests prune the reversed (pk ⊆ fk) and cross-band
  // candidates, so the merge sees each band against the full referenced
  // column — the skip-friendly shape.
  options.generator.max_value_pretest = true;
  options.generator.min_value_pretest = true;
  return options;
}

TEST(BlockSkipTest, SpiderMergeParityAcrossSkipAndThreads) {
  Catalog catalog;
  FillBandedCatalog(&catalog, /*ref_values=*/40000, /*bands=*/8,
                    /*band_width=*/100);
  SpiderSession session(catalog);

  auto baseline = session.Run(SkipOptions(/*block_skip=*/false, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->run.satisfied.size(), 8u);
  EXPECT_EQ(baseline->run.counters.blocks_skipped, 0);

  for (bool block_skip : {false, true}) {
    for (int threads : {1, 4}) {
      auto report = session.Run(SkipOptions(block_skip, threads));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->run.satisfied, baseline->run.satisfied)
          << "block_skip=" << block_skip << " threads=" << threads;
      if (block_skip) {
        // The gaps between bands span many 16 KiB blocks of the
        // referenced set; the gallop must hop them without decoding.
        EXPECT_GT(report->run.counters.blocks_skipped, 0)
            << "threads=" << threads;
        EXPECT_LT(report->run.counters.tuples_read,
                  baseline->run.counters.tuples_read)
            << "threads=" << threads;
      } else {
        EXPECT_EQ(report->run.counters.blocks_skipped, 0)
            << "threads=" << threads;
      }
    }
  }
}

TEST(BlockSkipTest, SkipCountersAreDeterministicSerially) {
  // Two identical serial runs must agree on every skip-related counter —
  // the benchmarks regress on these numbers.
  Catalog catalog;
  FillBandedCatalog(&catalog, /*ref_values=*/40000, /*bands=*/8,
                    /*band_width=*/100);
  SpiderSession first_session(catalog);
  SpiderSession second_session(catalog);
  auto first = first_session.Run(SkipOptions(/*block_skip=*/true, 1));
  auto second = second_session.Run(SkipOptions(/*block_skip=*/true, 1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->run.counters.blocks_skipped,
            second->run.counters.blocks_skipped);
  EXPECT_EQ(first->run.counters.tuples_read,
            second->run.counters.tuples_read);
  EXPECT_EQ(first->run.satisfied, second->run.satisfied);
}

// Two-column tables whose dependent tuples hit two narrow slices of the
// referenced tuple space: the composite merge gallops its referenced
// cursor across the gap between the slices.
void FillBandedCompositeCatalog(Catalog* catalog) {
  std::vector<std::string> dep_a;
  std::vector<std::string> dep_b;
  std::vector<std::string> ref_a;
  std::vector<std::string> ref_b;
  for (int i = 0; i < 4000; ++i) {
    ref_a.push_back(PaddedKey("a", i));
    ref_b.push_back(PaddedKey("b", i));
  }
  for (int i = 0; i < 50; ++i) {
    dep_a.push_back(PaddedKey("a", 100 + i));
    dep_b.push_back(PaddedKey("b", 100 + i));
    dep_a.push_back(PaddedKey("a", 3800 + i));
    dep_b.push_back(PaddedKey("b", 3800 + i));
  }
  auto* dep_table = catalog->CreateTable("dep").value();
  ASSERT_TRUE(dep_table->AddColumn("x", TypeId::kString, false).ok());
  ASSERT_TRUE(dep_table->AddColumn("y", TypeId::kString, false).ok());
  for (size_t i = 0; i < dep_a.size(); ++i) {
    ASSERT_TRUE(dep_table
                    ->AppendRow({Value::String(dep_a[i]),
                                 Value::String(dep_b[i])})
                    .ok());
  }
  auto* ref_table = catalog->CreateTable("ref").value();
  ASSERT_TRUE(ref_table->AddColumn("x", TypeId::kString, false).ok());
  ASSERT_TRUE(ref_table->AddColumn("y", TypeId::kString, false).ok());
  for (size_t i = 0; i < ref_a.size(); ++i) {
    ASSERT_TRUE(ref_table
                    ->AppendRow({Value::String(ref_a[i]),
                                 Value::String(ref_b[i])})
                    .ok());
  }
}

TEST(BlockSkipTest, CompositeVerifierParity) {
  // The n-ary verifier gallops its referenced cursor to each dependent
  // tuple; with skipping off it must reach the identical verdict and
  // error, reading at least as many tuples.
  Catalog catalog;
  FillBandedCompositeCatalog(&catalog);

  NaryInd candidate;
  candidate.dependent = {{"dep", "x"}, {"dep", "y"}};
  candidate.referenced = {{"ref", "x"}, {"ref", "y"}};

  RunCounters skip_counters;
  CompositeSetVerifier skip_verifier(nullptr, /*block_skip=*/true);
  auto skip_verdict = skip_verifier.VerifyIncluded(
      catalog, candidate, &skip_counters, /*early_stop=*/false);
  ASSERT_TRUE(skip_verdict.ok()) << skip_verdict.status().ToString();

  RunCounters linear_counters;
  CompositeSetVerifier linear_verifier(nullptr, /*block_skip=*/false);
  auto linear_verdict = linear_verifier.VerifyIncluded(
      catalog, candidate, &linear_counters, /*early_stop=*/false);
  ASSERT_TRUE(linear_verdict.ok());

  EXPECT_TRUE(*skip_verdict);
  EXPECT_EQ(*skip_verdict, *linear_verdict);
  EXPECT_EQ(linear_counters.blocks_skipped, 0);
  EXPECT_LE(skip_counters.tuples_read, linear_counters.tuples_read);

  auto skip_error = skip_verifier.Error(catalog, candidate, nullptr);
  auto linear_error = linear_verifier.Error(catalog, candidate, nullptr);
  ASSERT_TRUE(skip_error.ok());
  ASSERT_TRUE(linear_error.ok());
  EXPECT_EQ(*skip_error, *linear_error);
}

TEST(BlockSkipTest, DiskBackendParityAcrossSkipAndThreads) {
  // The same skip-on/off × serial/parallel matrix on an out-of-core
  // catalog: the extractor spills and merges through the identical
  // block-indexed files, so the satisfied set must not move.
  const auto data_options = datagen::PdbLikeOptions::PaperScale(/*entries=*/40);
  auto dir = TempDir::Make("spider-block-skip");
  ASSERT_TRUE(dir.ok());
  const auto csv_dir = (*dir)->path() / "csv";
  const auto workspace = (*dir)->path() / "ws";
  ASSERT_TRUE(std::filesystem::create_directories(csv_dir));
  {
    CsvCatalogSink csv_sink(csv_dir);
    ASSERT_TRUE(WritePdbLike(data_options, csv_sink).ok());
    ASSERT_TRUE(csv_sink.Finish().ok());
  }
  auto writer = DiskCatalogWriter::Create(workspace, "pdb_like");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto imported = ImportCsvDirectory(csv_dir, CsvOptions{}, **writer);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ASSERT_TRUE((*imported)->out_of_core());
  SpiderSession session(std::move(*imported));

  auto memory_catalog = datagen::MakePdbLike(data_options);
  ASSERT_TRUE(memory_catalog.ok());
  SpiderSession memory_session(**memory_catalog);
  auto expected = memory_session.Run(SkipOptions(/*block_skip=*/false, 1));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->run.satisfied.size(), 0u);

  for (bool block_skip : {false, true}) {
    for (int threads : {1, 4}) {
      auto report = session.Run(SkipOptions(block_skip, threads));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->run.satisfied, expected->run.satisfied)
          << "block_skip=" << block_skip << " threads=" << threads;
    }
  }
}

// Every n-ary expansion receives block_skip through the session: its
// composite merges reach the identical INDs with the identical test count
// either way, and bypass blocks only when skipping is on.
class NaryBlockSkipTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NaryBlockSkipTest, SessionHandsBlockSkipToTheExpansion) {
  Catalog catalog;
  FillBandedCompositeCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = GetParam();
  options.block_skip = false;
  auto linear = session.Run(options);
  ASSERT_TRUE(linear.ok()) << linear.status().ToString();
  options.block_skip = true;
  auto skipping = session.Run(options);
  ASSERT_TRUE(skipping.ok()) << skipping.status().ToString();

  EXPECT_FALSE(linear->nary_run.satisfied.empty());
  EXPECT_EQ(skipping->nary_run.satisfied, linear->nary_run.satisfied);
  EXPECT_EQ(skipping->nary_run.tests, linear->nary_run.tests);
  EXPECT_EQ(linear->nary_run.counters.blocks_skipped, 0);
  EXPECT_GT(skipping->nary_run.counters.blocks_skipped, 0);
}

INSTANTIATE_TEST_SUITE_P(AllNaryApproaches, NaryBlockSkipTest,
                         ::testing::Values("nary", "clique-nary", "zigzag"));

}  // namespace
}  // namespace spider
