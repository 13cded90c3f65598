// Whole-system property test: random schema-spec databases are profiled by
// every one of the eight algorithms and all results must equal an
// independent hash-set oracle. This is the strongest agreement check in
// the suite — it exercises candidate generation, external sorting, the
// merge engines, the SQL operators, and the baselines on one input, held
// in memory and in a disk workspace.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/datagen/schema_spec.h"
#include "src/ind/session.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

using datagen::ColumnKind;
using datagen::ColumnSpec;
using datagen::GenerateCatalog;
using datagen::SchemaSpec;
using datagen::TableSpec;

// A randomized spec: a parent table with keys, plus several child tables
// with FKs of varying coverage, dirt and NULLs, plus filler columns.
SchemaSpec RandomSpec(uint64_t seed) {
  Random rng(seed);
  SchemaSpec spec;
  spec.seed = seed * 7919 + 13;
  spec.name = "random";

  TableSpec parent;
  parent.name = "parent";
  parent.rows = rng.Uniform(20, 120);
  {
    ColumnSpec id;
    id.name = "id";
    id.kind = ColumnKind::kSequentialKey;
    id.key_base = rng.Uniform(1, 1000);
    parent.columns.push_back(id);
    ColumnSpec code;
    code.name = "code";
    code.kind = ColumnKind::kAccession;
    parent.columns.push_back(code);
    ColumnSpec note;
    note.name = "note";
    note.kind = ColumnKind::kText;
    parent.columns.push_back(note);
  }
  spec.tables.push_back(parent);

  const int children = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < children; ++i) {
    TableSpec child;
    child.name = "child" + std::to_string(i);
    child.rows = rng.Uniform(10, 200);
    ColumnSpec fk;
    fk.name = "parent_id";
    fk.kind = ColumnKind::kForeignKey;
    fk.fk_table = "parent";
    fk.fk_column = "id";
    fk.fk_coverage = 0.5 + rng.NextDouble() * 0.5;
    fk.dangling_fraction = rng.Bernoulli(0.5) ? 0.0 : rng.NextDouble() * 0.1;
    fk.null_fraction = rng.Bernoulli(0.5) ? 0.0 : 0.05;
    child.columns.push_back(fk);
    ColumnSpec cat;
    cat.name = "kind";
    cat.kind = ColumnKind::kCategory;
    cat.pool_size = static_cast<int>(rng.Uniform(2, 8));
    child.columns.push_back(cat);
    ColumnSpec num;
    num.name = "rank";
    num.kind = ColumnKind::kNumeric;
    num.min_value = 0;
    num.max_value = rng.Uniform(3, 30);
    child.columns.push_back(num);
    spec.tables.push_back(child);
  }
  return spec;
}

// Streams `catalog` into a disk workspace in `dir`: same tables, columns,
// types, constraints and rows, readable afterwards through cursors only.
Result<std::unique_ptr<Catalog>> CopyToDisk(const Catalog& catalog,
                                            const std::filesystem::path& dir) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<DiskCatalogWriter> writer,
                          DiskCatalogWriter::Create(dir, catalog.name()));
  for (int t = 0; t < catalog.table_count(); ++t) {
    const Table& table = catalog.table(t);
    SPIDER_RETURN_NOT_OK(writer->BeginTable(table.name()));
    for (int c = 0; c < table.column_count(); ++c) {
      const Column& column = table.column(c);
      SPIDER_RETURN_NOT_OK(writer->AddColumn(column.name(), column.type(),
                                             column.declared_unique()));
    }
    for (int64_t row = 0; row < table.row_count(); ++row) {
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(table.column_count()));
      for (int c = 0; c < table.column_count(); ++c) {
        values.push_back(table.column(c).value(row));
      }
      SPIDER_RETURN_NOT_OK(writer->AppendRow(std::move(values)));
    }
    SPIDER_RETURN_NOT_OK(writer->FinishTable());
  }
  return writer->Finish();
}

class CrossAlgorithmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossAlgorithmPropertyTest, AllEightAlgorithmsMatchTheOracle) {
  auto catalog = GenerateCatalog(RandomSpec(static_cast<uint64_t>(GetParam())));
  ASSERT_TRUE(catalog.ok());
  auto workspace = TempDir::Make("spider-cross-algorithm");
  ASSERT_TRUE(workspace.ok());
  auto disk = CopyToDisk(**catalog, (*workspace)->path());
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->out_of_core());

  // One shared candidate set (default pretests).
  CandidateGenerator generator;
  auto candidates = generator.Generate(**catalog);
  ASSERT_TRUE(candidates.ok());
  auto oracle = testing::NaiveSatisfiedSet(**catalog, candidates->candidates);

  // Every approach on both backends, single-threaded and under the
  // parallel dispatcher: each must equal the oracle.
  for (const Catalog* data : {catalog->get(), disk->get()}) {
    SpiderSession session(*data);
    const char* backend = data->out_of_core() ? "disk" : "memory";
    for (const std::string& approach : testing::UnaryApproachNames()) {
      for (int threads : {1, 4}) {
        RunOptions options;
        options.approach = approach;
        options.threads = threads;
        auto report = session.Run(options);
        ASSERT_TRUE(report.ok()) << approach << " " << backend << ": "
                                 << report.status().ToString();
        EXPECT_EQ(testing::ToSet(report->run.satisfied), oracle)
            << approach << " " << backend << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossAlgorithmPropertyTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace spider
