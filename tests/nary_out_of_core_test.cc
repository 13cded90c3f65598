// Out-of-core parity suite for the n-ary approaches: the same generated
// catalog is profiled through the memory backend and a disk-store
// workspace, serially and on 4 threads, with every combination required to
// produce byte-identical satisfied sets AND work counters. This is the
// acceptance gate for the composite-cursor streaming port — any code path
// that still random-accessed materialized columns would either abort on
// the disk catalog or drift the counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/ind/registry.h"
#include "src/ind/session.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

std::string V(const char* family, int64_t i) {
  return std::string(family) + std::to_string(i);
}

// Streams a deterministic composite-IND-rich catalog into any sink, so the
// memory catalog and the disk workspace hold byte-identical data. Columns
// are per-row unique (candidate generation only pairs unique referenced
// attributes) and each column family uses its own value alphabet, so only
// same-family unary INDs exist:
//  * orders(region, code, flag): 20 rows (r_i, c_i, f_i) — the referenced
//    side of every composite candidate;
//  * lineitems: exact row copies of the first 12 orders rows plus two
//    NULL-bearing rows — the full ternary IND holds, NULL tuples are
//    skipped;
//  * audit: 10 rows aligned with orders except a shifted `code` on the
//    last two — its optimistic ternary candidate fails with a small g3'
//    error (0.2), exercising the zigzag/clique refinement paths.
Status WriteParityCatalog(CatalogSink& sink) {
  SPIDER_RETURN_NOT_OK(sink.BeginTable("orders"));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("region", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("code", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("flag", TypeId::kString));
  for (int64_t i = 0; i < 20; ++i) {
    SPIDER_RETURN_NOT_OK(sink.AppendRow({Value::String(V("r", i)),
                                         Value::String(V("c", i)),
                                         Value::String(V("f", i))}));
  }
  SPIDER_RETURN_NOT_OK(sink.FinishTable());

  SPIDER_RETURN_NOT_OK(sink.BeginTable("lineitems"));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("region", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("code", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("flag", TypeId::kString));
  for (int64_t i = 0; i < 12; ++i) {
    SPIDER_RETURN_NOT_OK(sink.AppendRow({Value::String(V("r", i)),
                                         Value::String(V("c", i)),
                                         Value::String(V("f", i))}));
  }
  SPIDER_RETURN_NOT_OK(
      sink.AppendRow({Value::Null(), Value::String("c0"), Value::Null()}));
  SPIDER_RETURN_NOT_OK(
      sink.AppendRow({Value::String("r1"), Value::Null(), Value::Null()}));
  SPIDER_RETURN_NOT_OK(sink.FinishTable());

  SPIDER_RETURN_NOT_OK(sink.BeginTable("audit"));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("region", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("code", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("flag", TypeId::kString));
  for (int64_t i = 0; i < 10; ++i) {
    SPIDER_RETURN_NOT_OK(
        sink.AppendRow({Value::String(V("r", i)),
                        Value::String(V("c", i < 8 ? i : i + 1)),
                        Value::String(V("f", i))}));
  }
  SPIDER_RETURN_NOT_OK(sink.FinishTable());
  return Status::OK();
}

struct ParityCatalogs {
  std::unique_ptr<Catalog> memory;
  std::unique_ptr<Catalog> disk;
  std::unique_ptr<TempDir> workspace;  // keeps the disk catalog alive
};

ParityCatalogs BuildCatalogs() {
  ParityCatalogs out;
  MemoryCatalogSink memory_sink("parity");
  EXPECT_TRUE(WriteParityCatalog(memory_sink).ok());
  auto memory = memory_sink.Finish();
  EXPECT_TRUE(memory.ok());
  out.memory = std::move(memory).value();

  auto dir = TempDir::Make("spider-nary-parity");
  EXPECT_TRUE(dir.ok());
  out.workspace = std::move(dir).value();
  auto writer = DiskCatalogWriter::Create(out.workspace->path(), "parity");
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(WriteParityCatalog(**writer).ok());
  auto disk = (*writer)->Finish();
  EXPECT_TRUE(disk.ok());
  out.disk = std::move(disk).value();
  EXPECT_TRUE(out.disk->out_of_core());
  EXPECT_FALSE(out.memory->out_of_core());
  return out;
}

// peak_open_files is the one thread-count-dependent counter: under
// parallel dispatch it reports the high-water bound of the pool's largest
// concurrent per-task peaks (ApplyConcurrentPeakBound), so it is only
// compared between runs with matching thread counts.
void ExpectCountersEqual(const RunCounters& a, const RunCounters& b,
                         const std::string& label, bool include_peak) {
  EXPECT_EQ(a.tuples_read, b.tuples_read) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
  EXPECT_EQ(a.candidates_tested, b.candidates_tested) << label;
  EXPECT_EQ(a.candidates_pretest_pruned, b.candidates_pretest_pruned) << label;
  EXPECT_EQ(a.engine_rows_scanned, b.engine_rows_scanned) << label;
  EXPECT_EQ(a.files_opened, b.files_opened) << label;
  if (include_peak) {
    EXPECT_EQ(a.peak_open_files, b.peak_open_files) << label;
  }
}

SessionReport RunConfig(const Catalog& catalog, const std::string& approach,
                        int threads) {
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = approach;
  options.threads = threads;
  auto report = session.Run(options);
  EXPECT_TRUE(report.ok()) << approach << ": " << report.status().ToString();
  EXPECT_TRUE(report->run.finished);
  EXPECT_TRUE(report->nary_run.finished);
  return std::move(report).value();
}

class NaryOutOfCoreParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NaryOutOfCoreParityTest, DiskAndThreadCountsAreByteIdentical) {
  const std::string approach = GetParam();

  auto entry = AlgorithmRegistry::Global().Find(approach);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE((*entry)->capabilities.nary);
  EXPECT_TRUE((*entry)->capabilities.supports_out_of_core);

  ParityCatalogs catalogs = BuildCatalogs();
  const SessionReport reference = RunConfig(*catalogs.memory, approach, 1);

  // The generated schema must actually exercise composite discovery.
  EXPECT_FALSE(reference.run.satisfied.empty());
  EXPECT_FALSE(reference.nary_run.satisfied.empty());
  EXPECT_GT(reference.nary_run.tests, 0);

  struct Config {
    const Catalog* catalog;
    int threads;
    const char* label;
  };
  const std::vector<Config> configs = {
      {catalogs.memory.get(), 4, "memory/4"},
      {catalogs.disk.get(), 1, "disk/1"},
      {catalogs.disk.get(), 4, "disk/4"},
  };
  for (const Config& config : configs) {
    const SessionReport report =
        RunConfig(*config.catalog, approach, config.threads);
    const std::string label = approach + " @ " + config.label;
    EXPECT_EQ(report.run.satisfied, reference.run.satisfied) << label;
    EXPECT_EQ(report.nary_run.satisfied, reference.nary_run.satisfied)
        << label;
    EXPECT_EQ(report.nary_run.tests, reference.nary_run.tests) << label;
    ExpectCountersEqual(report.nary_run.counters, reference.nary_run.counters,
                        label, /*include_peak=*/config.threads == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNaryApproaches, NaryOutOfCoreParityTest,
                         ::testing::Values("nary", "clique-nary", "zigzag"));

TEST(NaryOutOfCoreTest, LevelwiseFindsTheTernaryInd) {
  ParityCatalogs catalogs = BuildCatalogs();
  const SessionReport report = RunConfig(*catalogs.disk, "nary", 1);
  const NaryInd ternary{
      {{"lineitems", "code"}, {"lineitems", "flag"}, {"lineitems", "region"}},
      {{"orders", "code"}, {"orders", "flag"}, {"orders", "region"}}};
  bool found = false;
  for (const NaryInd& ind : report.nary_run.satisfied) {
    if (ind == ternary) found = true;
  }
  EXPECT_TRUE(found) << "ternary lineitems ⊆ orders IND not discovered";
}

// Every expansion receives max_nary_arity through the session: uncapped,
// each finds an IND of arity >= 3 (the ternary lineitems ⊆ orders), so a
// cap of 2 is observable.
class NaryMaxArityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NaryMaxArityTest, MaxArityCapsTheExpansion) {
  ParityCatalogs catalogs = BuildCatalogs();
  SpiderSession session(*catalogs.disk);
  RunOptions options;
  options.approach = GetParam();
  auto uncapped = session.Run(options);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  int widest = 0;
  for (const NaryInd& ind : uncapped->nary_run.satisfied) {
    widest = std::max(widest, ind.arity());
  }
  EXPECT_GE(widest, 3);

  options.nary_max_arity = 2;
  auto capped = session.Run(options);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_FALSE(capped->nary_run.satisfied.empty());
  for (const NaryInd& ind : capped->nary_run.satisfied) {
    EXPECT_LE(ind.arity(), 2) << ind.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllNaryApproaches, NaryMaxArityTest,
                         ::testing::Values("nary", "clique-nary", "zigzag"));

TEST(NaryOutOfCoreTest, NaryBaseMustBeUnary) {
  ParityCatalogs catalogs = BuildCatalogs();
  SpiderSession session(*catalogs.memory);
  RunOptions options;
  options.approach = "nary";
  options.nary_base = "zigzag";
  auto report = session.Run(options);
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
}

}  // namespace
}  // namespace spider
