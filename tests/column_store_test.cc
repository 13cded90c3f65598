#include "src/storage/column_store.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/storage/column_stats.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

// Drains a cursor into (canonical value, is_null) pairs.
std::vector<std::pair<std::string, bool>> Drain(const Column& column) {
  auto cursor = column.OpenCursor();
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<std::pair<std::string, bool>> out;
  std::string_view view;
  for (CursorStep step = (*cursor)->Next(&view); step != CursorStep::kEnd;
       step = (*cursor)->Next(&view)) {
    if (step == CursorStep::kNull) {
      out.emplace_back("", true);
    } else {
      out.emplace_back(std::string(view), false);
    }
  }
  EXPECT_TRUE((*cursor)->status().ok()) << (*cursor)->status().ToString();
  return out;
}

TEST(MemoryColumnStoreTest, CursorYieldsCanonicalValuesAndNulls) {
  Column column("c", TypeId::kInteger);
  column.Append(Value::Integer(7));
  column.Append(Value::Null());
  column.Append(Value::Integer(-3));
  auto rows = Drain(column);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], std::make_pair(std::string("7"), false));
  EXPECT_TRUE(rows[1].second);
  EXPECT_EQ(rows[2].first, "-3");
}

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-disk-store-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  std::filesystem::path Workspace(const std::string& name) {
    return dir_->path() / name;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(DiskStoreTest, RoundTripsValuesNullsAndTypes) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("i", TypeId::kInteger).ok());
  ASSERT_TRUE((*writer)->AddColumn("s", TypeId::kString).ok());
  ASSERT_TRUE(
      (*writer)->AppendRow({Value::Integer(1), Value::String("a,\"b\"\nc")}).ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Null(), Value::String("x")}).ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Integer(2), Value::Null()}).ok());
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const Table* t = (*catalog)->FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 3);
  EXPECT_TRUE((*catalog)->out_of_core());
  EXPECT_TRUE(t->column(0).out_of_core());

  auto i_rows = Drain(t->column(0));
  ASSERT_EQ(i_rows.size(), 3u);
  EXPECT_EQ(i_rows[0].first, "1");
  EXPECT_TRUE(i_rows[1].second);
  EXPECT_EQ(i_rows[2].first, "2");

  auto s_rows = Drain(t->column(1));
  EXPECT_EQ(s_rows[0].first, "a,\"b\"\nc");  // bytes survive verbatim
  EXPECT_TRUE(s_rows[2].second);
}

TEST_F(DiskStoreTest, CachedStatsMatchScannedStats) {
  // Build the same data twice: disk-backed (stats computed at seal time
  // from the block dictionaries) and in-memory (stats computed by
  // scanning). Every field must agree.
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  Column memory_column("v", TypeId::kString);
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  for (int i = 0; i < 500; ++i) {
    Value v = (i % 7 == 0) ? Value::Null()
                           : Value::String("val" + std::to_string(i % 90));
    memory_column.Append(v);
    ASSERT_TRUE((*writer)->AppendRow({std::move(v)}).ok());
  }
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());

  const Column& disk_column = (*catalog)->FindTable("t")->column(0);
  ASSERT_NE(disk_column.cached_stats(), nullptr);
  const ColumnStats from_cache = ComputeColumnStats(disk_column);
  const ColumnStats from_scan = ComputeColumnStats(memory_column);
  EXPECT_EQ(from_cache.row_count, from_scan.row_count);
  EXPECT_EQ(from_cache.null_count, from_scan.null_count);
  EXPECT_EQ(from_cache.non_null_count, from_scan.non_null_count);
  EXPECT_EQ(from_cache.distinct_count, from_scan.distinct_count);
  EXPECT_EQ(from_cache.verified_unique, from_scan.verified_unique);
  EXPECT_EQ(from_cache.min_value, from_scan.min_value);
  EXPECT_EQ(from_cache.max_value, from_scan.max_value);
  EXPECT_EQ(from_cache.min_length, from_scan.min_length);
  EXPECT_EQ(from_cache.max_length, from_scan.max_length);
  EXPECT_DOUBLE_EQ(from_cache.letter_fraction, from_scan.letter_fraction);
  EXPECT_DOUBLE_EQ(from_cache.digit_fraction, from_scan.digit_fraction);
}

TEST_F(DiskStoreTest, MultiBlockColumnRoundTripsInOrder) {
  DiskStoreOptions options;
  options.block_bytes = 1024;  // force many blocks
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  std::vector<std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    std::string value = "value-" + std::to_string(i * 37 % 1000) + "-" +
                        std::string(static_cast<size_t>(i % 13), 'x');
    expected.push_back(value);
    ASSERT_TRUE((*writer)->AppendRow({Value::String(std::move(value))}).ok());
  }
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());

  const Column& column = (*catalog)->FindTable("t")->column(0);
  const auto* store = dynamic_cast<const DiskColumnStore*>(&column.store());
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->block_count(), 4) << "test must span several blocks";

  auto rows = Drain(column);
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(rows[i].first, expected[i]) << "row " << i;
    ASSERT_FALSE(rows[i].second);
  }
  // Distinct stats survive the multi-block dictionary merge: the value at
  // i and at i + 1000 share the first component but differ in the suffix
  // (1000 % 13 != 0), so every row is distinct.
  EXPECT_EQ(column.cached_stats()->distinct_count, 2000);
  EXPECT_TRUE(column.cached_stats()->verified_unique);
}

TEST_F(DiskStoreTest, DictionaryCompressionShrinksRepetitiveColumns) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  const std::string value(100, 'r');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*writer)->AppendRow({Value::String(value)}).ok());
  }
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());
  // 100 KB of raw values, one dictionary entry: far under 10% on disk.
  EXPECT_LT((*catalog)->ApproximateByteSize(), 10 * 1000);
}

TEST_F(DiskStoreTest, ManifestReopenRestoresCatalogAndStats) {
  const auto workspace = Workspace("ws");
  {
    auto writer = DiskCatalogWriter::Create(workspace, "mydb");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->BeginTable("weird\tname %").ok());
    ASSERT_TRUE((*writer)->AddColumn("col\nnewline", TypeId::kString, true).ok());
    ASSERT_TRUE((*writer)->AppendRow({Value::String("a")}).ok());
    ASSERT_TRUE((*writer)->AppendRow({Value::String("b")}).ok());
    ASSERT_TRUE((*writer)->FinishTable().ok());
    (*writer)->DeclareForeignKey(
        ForeignKey{{"weird\tname %", "col\nnewline"}, {"t2", "c2"}});
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  ASSERT_TRUE(IsDiskCatalogDir(workspace));
  auto reopened = OpenDiskCatalog(workspace);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->name(), "mydb");
  const Table* t = (*reopened)->FindTable("weird\tname %");
  ASSERT_NE(t, nullptr);
  const Column* c = t->FindColumn("col\nnewline");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->declared_unique());
  EXPECT_EQ(c->row_count(), 2);
  ASSERT_NE(c->cached_stats(), nullptr);
  EXPECT_EQ(c->cached_stats()->distinct_count, 2);
  EXPECT_TRUE(c->cached_stats()->verified_unique);
  EXPECT_EQ(c->cached_stats()->min_value, std::optional<std::string>("a"));
  auto rows = Drain(*c);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].first, "b");
  ASSERT_EQ((*reopened)->declared_foreign_keys().size(), 1u);

  // A workspace is written once.
  EXPECT_TRUE(
      DiskCatalogWriter::Create(workspace, "again").status().IsAlreadyExists());
}

TEST_F(DiskStoreTest, SealedStoreRejectsAppends) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kInteger).ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Integer(1)}).ok());
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());
  Table* t = (*catalog)->FindTable("t");
  EXPECT_FALSE(t->AppendRow({Value::Integer(2)}).ok());
}

TEST_F(DiskStoreTest, WriterValidatesArityAndTypes) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kInteger).ok());
  EXPECT_TRUE((*writer)
                  ->AppendRow({Value::Integer(1), Value::Integer(2)})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      (*writer)->AppendRow({Value::String("x")}).IsInvalidArgument());
  EXPECT_TRUE((*writer)->AppendRow({Value::Null()}).ok());
}

TEST_F(DiskStoreTest, CorruptBlockHeaderSurfacesStatusNotAbort) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*writer)->AppendRow({Value::String("v" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());
  const Column& column = (*catalog)->FindTable("t")->column(0);
  const auto* store = dynamic_cast<const DiskColumnStore*>(&column.store());
  ASSERT_NE(store, nullptr);

  // Overwrite the block header with a huge varint payload size: the cursor
  // must report IOError, not allocate terabytes or abort.
  {
    std::fstream f(store->path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0xFF, 0x7F};
    f.write(reinterpret_cast<const char*>(huge), sizeof(huge));
  }
  auto cursor = column.OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::string_view view;
  EXPECT_EQ(static_cast<int>((*cursor)->Next(&view)),
            static_cast<int>(CursorStep::kEnd));
  EXPECT_TRUE((*cursor)->status().IsIOError());
}

TEST_F(DiskStoreTest, VersionOneManifestIsACleanError) {
  // Version-1 manifests are no longer read: reopening or appending to such
  // a workspace reports the unsupported header (reimport it) instead of
  // aborting.
  const auto workspace = Workspace("ws");
  {
    auto writer = DiskCatalogWriter::Create(workspace, "db");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
    ASSERT_TRUE((*writer)->AppendRow({Value::String("a")}).ok());
    ASSERT_TRUE((*writer)->FinishTable().ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const auto manifest = workspace / kDiskStoreManifestName;
  std::string text;
  {
    std::ifstream in(manifest);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string v2_header = "spider-store\t2\n";
  ASSERT_EQ(text.rfind(v2_header, 0), 0u);
  text.replace(0, v2_header.size(), "spider-store\t1\n");
  std::ofstream(manifest) << text;

  const Status opened = OpenDiskCatalog(workspace).status();
  EXPECT_TRUE(opened.IsInvalidArgument()) << opened.ToString();
  EXPECT_NE(opened.message().find("missing or unsupported version header"),
            std::string::npos)
      << opened.ToString();
  const Status appended = DiskCatalogWriter::OpenForAppend(workspace).status();
  EXPECT_TRUE(appended.IsInvalidArgument()) << appended.ToString();
  EXPECT_NE(appended.message().find("missing or unsupported version header"),
            std::string::npos)
      << appended.ToString();
}

TEST_F(DiskStoreTest, OpenMissingWorkspaceFails) {
  EXPECT_FALSE(IsDiskCatalogDir(Workspace("nope")));
  EXPECT_FALSE(OpenDiskCatalog(Workspace("nope")).ok());
}

TEST_F(DiskStoreTest, EmptyTableAndEmptyColumn) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("empty").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());
  const Column& column = (*catalog)->FindTable("empty")->column(0);
  EXPECT_EQ(column.row_count(), 0);
  EXPECT_FALSE(column.has_data());
  EXPECT_TRUE(Drain(column).empty());
  EXPECT_EQ(column.cached_stats()->distinct_count, 0);
  EXPECT_FALSE(column.cached_stats()->min_value.has_value());
}

TEST_F(DiskStoreTest, MaterializedAccessToOutOfCoreColumnAborts) {
  auto writer = DiskCatalogWriter::Create(Workspace("ws"), "db");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kInteger).ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Integer(1)}).ok());
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok());
  const Column& column = (*catalog)->FindTable("t")->column(0);
  EXPECT_DEATH((void)column.values(), "out-of-core");
}

}  // namespace
}  // namespace spider
