#include "src/storage/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/temp_dir.h"
#include "src/common/thread_pool.h"
#include "src/common/value_codec.h"
#include "src/storage/column_stats.h"
#include "src/storage/disk_store.h"
#include "src/storage/store_manifest.h"
#include "tests/test_util.h"

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

// (file name, HashString of its bytes) of every .col file and the manifest
// in `workspace`, sorted by name.
std::vector<std::pair<std::string, uint64_t>> HashWorkspace(
    const std::filesystem::path& workspace) {
  std::vector<std::pair<std::string, uint64_t>> hashes;
  for (const auto& entry : std::filesystem::directory_iterator(workspace)) {
    if (entry.path().extension() != ".col" &&
        entry.path().filename() != kDiskStoreManifestName) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    hashes.emplace_back(entry.path().filename().string(), HashString(bytes));
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// (attribute, HashString of its blocks in offset order) of every column of
// the workspace: a column's bytes, wherever in its table file they lie.
std::vector<std::pair<std::string, uint64_t>> HashColumns(
    const std::filesystem::path& workspace) {
  std::vector<std::pair<std::string, uint64_t>> hashes;
  auto catalog = OpenDiskCatalog(workspace);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  if (!catalog.ok()) return hashes;
  for (const AttributeRef& attr : (*catalog)->AllAttributes()) {
    const auto& store = dynamic_cast<const DiskColumnStore&>(
        (*(*catalog)->ResolveAttribute(attr))->store());
    const std::string file = ReadBytes(store.path());
    std::string blocks;
    for (const uint64_t offset : store.block_offsets()) {
      SpanReader head(std::string_view(file).substr(offset));
      uint64_t payload_bytes = 0;
      EXPECT_TRUE(head.Varint(&payload_bytes));
      blocks.append(file, offset, head.position() + payload_bytes);
    }
    EXPECT_EQ(static_cast<int64_t>(blocks.size()),
              store.ApproximateByteSize());
    hashes.emplace_back(attr.ToString(), HashString(blocks));
  }
  return hashes;
}

// Rows [begin, end) of the pinned table: every column cycles through its
// edge cases, interleaved with ordinary values so each block's dictionary
// holds several entries and every column spans several 1 KiB blocks.
void AppendPinnedRows(DiskCatalogWriter& writer, int begin, int end) {
  const int64_t ints[] = {-1,
                          0,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          42,
                          -987654321};
  const double doubles[] = {-0.0, 0.1, 1e21, 5e-324, 1e16, 2.5};
  const std::string strings[] = {"caf\xc3\xa9", "\xff\x80\x7f", "tab\there",
                                 "new\nline",   "100%",         ""};
  for (int r = begin; r < end; ++r) {
    const size_t edge = static_cast<size_t>(r / 2 % 6);
    std::vector<Value> row;
    row.push_back(r % 11 == 0  ? Value::Null()
                  : r % 2 == 0 ? Value::Integer(ints[edge])
                               : Value::Integer(r * 7919LL - 500000));
    row.push_back(r % 13 == 0  ? Value::Null()
                  : r % 2 == 0 ? Value::Double(doubles[edge])
                               : Value::Double(r * 0.37 - 50.0 + 1.0 / r));
    row.push_back(r % 7 == 0   ? Value::Null()
                  : r % 2 == 0 ? Value::String(strings[edge])
                               : Value::String("s" + std::to_string(r % 97)));
    ASSERT_TRUE(writer.AppendRow(std::move(row)).ok());
  }
}

// Every byte of the .col block format and of spider_store.manifest, for a
// create and an append that extends a column and adds a table. The
// constants are FNV hashes as the format stands: of each column's blocks in
// offset order, of each table file, whose blocks interleave in flush
// order, and of the manifest. A change to any block boundary, dictionary
// order, canonical rendering, block placement or manifest field breaks
// them.
TEST_F(DiskStoreTest, ColumnBytesArePinned) {
  DiskStoreOptions options;
  options.block_bytes = 1024;
  const auto workspace = Workspace("ws");
  {
    auto writer = DiskCatalogWriter::Create(workspace, "pinned", options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    ASSERT_TRUE((*writer)->AddColumn("i", TypeId::kInteger).ok());
    ASSERT_TRUE((*writer)->AddColumn("d", TypeId::kDouble).ok());
    ASSERT_TRUE((*writer)->AddColumn("s", TypeId::kString).ok());
    AppendPinnedRows(**writer, 1, 801);
    ASSERT_TRUE((*writer)->FinishTable().ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  {
    auto writer = DiskCatalogWriter::OpenForAppend(workspace, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    ASSERT_TRUE((*writer)->AddColumn("i", TypeId::kInteger).ok());
    ASSERT_TRUE((*writer)->AddColumn("d", TypeId::kDouble).ok());
    ASSERT_TRUE((*writer)->AddColumn("s", TypeId::kString).ok());
    AppendPinnedRows(**writer, 801, 1201);
    ASSERT_TRUE((*writer)->FinishTable().ok());
    ASSERT_TRUE((*writer)->BeginTable("u").ok());
    ASSERT_TRUE((*writer)->AddColumn("i", TypeId::kInteger).ok());
    ASSERT_TRUE((*writer)->AddColumn("d", TypeId::kDouble).ok());
    ASSERT_TRUE((*writer)->AddColumn("s", TypeId::kString).ok());
    AppendPinnedRows(**writer, 2000, 2300);
    ASSERT_TRUE((*writer)->FinishTable().ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  const std::vector<std::pair<std::string, uint64_t>> columns = {
      {"t.i", 6079092361327076125ULL},  {"t.d", 11651409292902824111ULL},
      {"t.s", 6571703981969331183ULL},  {"u.i", 517999071667864188ULL},
      {"u.d", 4851436847463988434ULL},  {"u.s", 1846333633624720075ULL},
  };
  EXPECT_EQ(HashColumns(workspace), columns);
  const std::vector<std::pair<std::string, uint64_t>> files = {
      {"spider_store.manifest", 6655222504482418438ULL},
      {"t-b6fcea7f248b153a.col", 14682618593437121046ULL},
      {"u-c43cd7728426a6c0.col", 2607077698417229147ULL},
  };
  EXPECT_EQ(HashWorkspace(workspace), files);
}

// Writes rows [begin, end) into table "t" (one integer column) through an
// open writer and commits.
void WriteIntRows(DiskCatalogWriter& writer, int begin, int end) {
  ASSERT_TRUE(writer.BeginTable("t").ok());
  ASSERT_TRUE(writer.AddColumn("v", TypeId::kInteger).ok());
  for (int r = begin; r < end; ++r) {
    ASSERT_TRUE(writer.AppendRow({Value::Integer(r * 31 % 1000)}).ok());
  }
  ASSERT_TRUE(writer.FinishTable().ok());
  ASSERT_TRUE(writer.Finish().ok());
}

void ExpectBusy(const Status& status) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("workspace busy"), std::string::npos)
      << status.ToString();
}

// The thread counts every parity test compares: inline, two and four
// workers, and the default (hardware concurrency).
constexpr int kParityThreads[] = {1, 2, 4, 0};

// Runs `write` into a fresh workspace at each thread count of
// kParityThreads and expects every .col file and the manifest to hold the
// inline writer's bytes.
void ExpectSameBytesAtEveryThreadCount(
    const std::filesystem::path& root, DiskStoreOptions options,
    const std::function<void(const std::filesystem::path&,
                             const DiskStoreOptions&)>& write) {
  std::vector<std::pair<std::string, uint64_t>> inline_bytes;
  for (const int threads : kParityThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    const auto workspace = root / ("ws-" + std::to_string(threads));
    write(workspace, options);
    const auto bytes = HashWorkspace(workspace);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      inline_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, inline_bytes);
    }
  }
}

// Declares columns i, d and s of ColumnBytesArePinned's tables.
void AddPinnedColumns(DiskCatalogWriter& writer) {
  ASSERT_TRUE(writer.AddColumn("i", TypeId::kInteger).ok());
  ASSERT_TRUE(writer.AddColumn("d", TypeId::kDouble).ok());
  ASSERT_TRUE(writer.AddColumn("s", TypeId::kString).ok());
}

// A create, then an append that extends the sealed blocks of one table and
// adds another in the same session: ColumnBytesArePinned at every thread
// count.
TEST_F(DiskStoreTest, CreateAndAppendBytesMatchAtEveryThreadCount) {
  DiskStoreOptions options;
  options.block_bytes = 1024;
  ExpectSameBytesAtEveryThreadCount(
      dir_->path(), options,
      [](const std::filesystem::path& workspace,
         const DiskStoreOptions& options) {
        {
          auto writer = DiskCatalogWriter::Create(workspace, "pinned", options);
          ASSERT_TRUE(writer.ok()) << writer.status().ToString();
          ASSERT_TRUE((*writer)->BeginTable("t").ok());
          AddPinnedColumns(**writer);
          AppendPinnedRows(**writer, 1, 3001);
          ASSERT_TRUE((*writer)->FinishTable().ok());
          ASSERT_TRUE((*writer)->Finish().ok());
        }
        auto writer = DiskCatalogWriter::OpenForAppend(workspace, options);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        ASSERT_TRUE((*writer)->BeginTable("t").ok());
        AddPinnedColumns(**writer);
        AppendPinnedRows(**writer, 3001, 4201);
        ASSERT_TRUE((*writer)->FinishTable().ok());
        ASSERT_TRUE((*writer)->BeginTable("u").ok());
        AddPinnedColumns(**writer);
        AppendPinnedRows(**writer, 5000, 7500);
        ASSERT_TRUE((*writer)->FinishTable().ok());
        ASSERT_TRUE((*writer)->Finish().ok());
      });
}

// Columns that are mostly or entirely NULL: a NULL code is one byte, so
// their blocks fill at other rows than their neighbours'.
TEST_F(DiskStoreTest, NullHeavyColumnBytesMatchAtEveryThreadCount) {
  DiskStoreOptions options;
  options.block_bytes = 1024;
  ExpectSameBytesAtEveryThreadCount(
      dir_->path(), options,
      [](const std::filesystem::path& workspace,
         const DiskStoreOptions& options) {
        auto writer = DiskCatalogWriter::Create(workspace, "nulls", options);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        ASSERT_TRUE((*writer)->BeginTable("t").ok());
        ASSERT_TRUE((*writer)->AddColumn("all_null", TypeId::kInteger).ok());
        ASSERT_TRUE((*writer)->AddColumn("sparse", TypeId::kString).ok());
        ASSERT_TRUE((*writer)->AddColumn("dense", TypeId::kInteger).ok());
        for (int r = 0; r < 9000; ++r) {
          std::vector<Value> row;
          row.push_back(Value::Null());
          row.push_back(r % 10 == 0 ? Value::String("v" + std::to_string(r))
                                    : Value::Null());
          row.push_back(r % 3 == 0 ? Value::Null() : Value::Integer(r % 500));
          ASSERT_TRUE((*writer)->AppendRow(std::move(row)).ok());
        }
        ASSERT_TRUE((*writer)->FinishTable().ok());
        ASSERT_TRUE((*writer)->Finish().ok());
      });
}

// A long-string column fills several blocks within one batch while the
// low-cardinality column beside it fills one every few batches: the
// written order interleaves them by fill row.
TEST_F(DiskStoreTest, LongStringBlocksInterleaveAtEveryThreadCount) {
  DiskStoreOptions options;
  options.block_bytes = 8192;
  ExpectSameBytesAtEveryThreadCount(
      dir_->path(), options,
      [](const std::filesystem::path& workspace,
         const DiskStoreOptions& options) {
        auto writer = DiskCatalogWriter::Create(workspace, "long", options);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        ASSERT_TRUE((*writer)->BeginTable("t").ok());
        ASSERT_TRUE((*writer)->AddColumn("long", TypeId::kString).ok());
        ASSERT_TRUE((*writer)->AddColumn("low", TypeId::kString).ok());
        for (int r = 0; r < 6000; ++r) {
          std::string value(static_cast<size_t>(900 + r % 200), 'a' + r % 26);
          value += std::to_string(r);
          ASSERT_TRUE((*writer)
                          ->AppendRow({Value::String(std::move(value)),
                                       Value::String(r % 7 == 0 ? "x" : "y")})
                          .ok());
        }
        ASSERT_TRUE((*writer)->FinishTable().ok());
        auto catalog = (*writer)->Finish();
        ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
        const auto blocks = [&](int column) {
          return dynamic_cast<const DiskColumnStore&>(
                     (*catalog)->FindTable("t")->column(column).store())
              .block_count();
        };
        EXPECT_GT(blocks(0), 500) << "the long column must fill many blocks";
        EXPECT_LE(blocks(1), 4) << "the low column must fill few";
      });
}

// Row counts at the edges of a batch: none, one, exactly one batch, and
// one batch plus a row.
TEST_F(DiskStoreTest, BatchEdgeRowCountsMatchAtEveryThreadCount) {
  const int batch_rows = static_cast<int>(kDiskWriterBatchCells / 3);
  for (const int rows : {0, 1, batch_rows, batch_rows + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    DiskStoreOptions options;
    options.block_bytes = 1024;
    ExpectSameBytesAtEveryThreadCount(
        dir_->path() / std::to_string(rows), options,
        [rows](const std::filesystem::path& workspace,
               const DiskStoreOptions& options) {
          auto writer = DiskCatalogWriter::Create(workspace, "edge", options);
          ASSERT_TRUE(writer.ok()) << writer.status().ToString();
          ASSERT_TRUE((*writer)->BeginTable("t").ok());
          AddPinnedColumns(**writer);
          AppendPinnedRows(**writer, 1, rows + 1);
          ASSERT_TRUE((*writer)->FinishTable().ok());
          auto catalog = (*writer)->Finish();
          ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
          EXPECT_EQ((*catalog)->FindTable("t")->row_count(), rows);
        });
  }
}

// Tables of growing width in one writer: a narrow one starts the pool, a
// wider one grows it and shares a task among several columns, and one wider
// than a batch submits a batch per row.
TEST_F(DiskStoreTest, WideTableBytesMatchAtEveryThreadCount) {
  DiskStoreOptions options;
  options.block_bytes = 1024;
  ExpectSameBytesAtEveryThreadCount(
      dir_->path(), options,
      [](const std::filesystem::path& workspace,
         const DiskStoreOptions& options) {
        auto writer = DiskCatalogWriter::Create(workspace, "wide", options);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        const struct {
          const char* name;
          int columns;
          int rows;
        } tables[] = {{"narrow", 2, 9000},
                      {"wide", 40, 1000},
                      {"widest", static_cast<int>(kDiskWriterBatchCells) + 5,
                       7}};
        for (const auto& table : tables) {
          ASSERT_TRUE((*writer)->BeginTable(table.name).ok());
          for (int c = 0; c < table.columns; ++c) {
            ASSERT_TRUE((*writer)
                            ->AddColumn("c" + std::to_string(c),
                                        c % 2 == 0 ? TypeId::kString
                                                   : TypeId::kInteger)
                            .ok());
          }
          for (int r = 0; r < table.rows; ++r) {
            std::vector<Value> row;
            for (int c = 0; c < table.columns; ++c) {
              if ((r + c) % 11 == 0) {
                row.push_back(Value::Null());
              } else if (c % 2 == 1) {
                row.push_back(Value::Integer((r * 7 + c) % (c + 3)));
              } else if (c == 0) {
                // Long enough to fill a block every few rows.
                row.push_back(Value::String(std::string(400, 'a' + r % 26) +
                                            std::to_string(r)));
              } else {
                row.push_back(Value::String("v" + std::to_string(r % 97)));
              }
            }
            ASSERT_TRUE((*writer)->AppendRow(std::move(row)).ok());
          }
          ASSERT_TRUE((*writer)->FinishTable().ok());
        }
        auto catalog = (*writer)->Finish();
        ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
        // Every column holds its own cells: its NULLs are where (r + c) % 11
        // put them.
        for (const auto& table : tables) {
          for (int c = 0; c < table.columns; ++c) {
            int64_t non_null = 0;
            for (int r = 0; r < table.rows; ++r) non_null += (r + c) % 11 != 0;
            ASSERT_EQ((*catalog)
                          ->FindTable(table.name)
                          ->column(c)
                          .store()
                          .non_null_count(),
                      non_null)
                << table.name << " column " << c;
          }
        }
      });
}

// The threads of this process.
int ProcessThreads() {
  const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
  return static_cast<int>(std::distance(begin(tasks), end(tasks)));
}

// However many threads a writer is given, it starts none for a table that
// fits in one batch and no more than the hardware concurrency or a larger
// table's columns, and they go with the writer.
TEST_F(DiskStoreTest, WriterStartsOnlyTheWorkersItsTablesUse) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc";
  // A sanitizer runtime may start a thread of its own with the process's
  // first one: let that happen before counting.
  { ThreadPool warm_up(1); }
  const int hardware = ThreadPool::ResolveThreadCount(0);
  for (const int threads : {1, 4096}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const int before = ProcessThreads();
    DiskStoreOptions options;
    options.threads = threads;
    {
      auto writer = DiskCatalogWriter::Create(
          Workspace("ws-" + std::to_string(threads)), "workers", options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE((*writer)->BeginTable("small").ok());
      AddPinnedColumns(**writer);
      AppendPinnedRows(**writer, 1, 100);
      ASSERT_TRUE((*writer)->FinishTable().ok());
      EXPECT_EQ(ProcessThreads(), before);

      ASSERT_TRUE((*writer)->BeginTable("large").ok());
      AddPinnedColumns(**writer);
      AppendPinnedRows(**writer, 1, 20001);
      ASSERT_TRUE((*writer)->FinishTable().ok());
      const int workers = ProcessThreads() - before;
      if (threads == 1 || hardware == 1) {
        EXPECT_EQ(workers, 0);
      } else {
        EXPECT_GT(workers, 0);
        EXPECT_LE(workers, std::min(3, hardware));
      }
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    EXPECT_EQ(ProcessThreads(), before);
  }
}

// A writer dropped with batches in flight returns, and commits nothing: a
// created workspace holds no manifest, an appended one its old manifest.
TEST_F(DiskStoreTest, WriterDroppedWithBatchesInFlightCommitsNothing) {
  for (const int threads : kParityThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DiskStoreOptions options;
    options.block_bytes = 1024;
    options.threads = threads;
    const auto workspace = Workspace("ws-" + std::to_string(threads));
    {
      auto writer = DiskCatalogWriter::Create(workspace, "dropped", options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE((*writer)->BeginTable("t").ok());
      AddPinnedColumns(**writer);
      AppendPinnedRows(**writer, 1, 20001);
    }
    EXPECT_FALSE(IsDiskCatalogDir(workspace));

    {
      auto writer = DiskCatalogWriter::Create(workspace, "dropped", options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      WriteIntRows(**writer, 0, 300);
    }
    const std::string manifest =
        ReadBytes(workspace / kDiskStoreManifestName);
    {
      auto writer = DiskCatalogWriter::OpenForAppend(workspace, options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE((*writer)->BeginTable("t").ok());
      ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kInteger).ok());
      for (int r = 0; r < 20000; ++r) {
        ASSERT_TRUE((*writer)->AppendRow({Value::Integer(r)}).ok());
      }
    }
    EXPECT_EQ(ReadBytes(workspace / kDiskStoreManifestName), manifest);
    auto catalog = OpenDiskCatalog(workspace);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    EXPECT_EQ((*catalog)->FindTable("t")->row_count(), 300);
  }
}

// A block write that fails surfaces as an IOError at a later AppendRow or
// at FinishTable, and nothing commits: the table file is /dev/full.
TEST_F(DiskStoreTest, FailedBlockWriteSurfacesAndCommitsNothing) {
  for (const int threads : kParityThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DiskStoreOptions options;
    options.block_bytes = 1024;
    options.threads = threads;
    const auto workspace = Workspace("ws-" + std::to_string(threads));
    std::filesystem::create_directories(workspace);
    std::filesystem::create_symlink("/dev/full",
                                    workspace / (TableFileStem("t") + ".col"));
    auto writer = DiskCatalogWriter::Create(workspace, "full", options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    AddPinnedColumns(**writer);
    Status status;
    for (int r = 1; r <= 20000 && status.ok(); ++r) {
      status = (*writer)->AppendRow(
          {Value::Integer(r), Value::Double(r * 0.5),
           Value::String("value-" + std::to_string(r))});
    }
    if (status.ok()) status = (*writer)->FinishTable();
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_FALSE((*writer)->FinishTable().ok());
    EXPECT_FALSE((*writer)->Finish().ok());
    EXPECT_FALSE(IsDiskCatalogDir(workspace));
  }
}

// Two writers on one workspace: flock locks belong to the open file
// description, so two writers in one process contend exactly as two
// processes do.
TEST_F(DiskStoreTest, OneWriterPerWorkspace) {
  const auto workspace = Workspace("ws");
  {
    auto first = DiskCatalogWriter::Create(workspace, "db");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ExpectBusy(DiskCatalogWriter::Create(workspace, "db").status());
    WriteIntRows(**first, 0, 300);
  }
  // Committed: a second Create is refused as before, not as busy.
  EXPECT_TRUE(
      DiskCatalogWriter::Create(workspace, "db").status().IsAlreadyExists());

  auto first = DiskCatalogWriter::OpenForAppend(workspace);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectBusy(DiskCatalogWriter::Create(workspace, "db").status());
  ExpectBusy(DiskCatalogWriter::OpenForAppend(workspace).status());
  WriteIntRows(**first, 300, 600);

  // Finish() released the lock, though `first` is still alive.
  auto second = DiskCatalogWriter::OpenForAppend(workspace);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  WriteIntRows(**second, 600, 900);

  // Destroying an unfinished writer releases the lock too.
  {
    auto abandoned = DiskCatalogWriter::OpenForAppend(workspace);
    ASSERT_TRUE(abandoned.ok()) << abandoned.status().ToString();
  }
  auto reopened = DiskCatalogWriter::OpenForAppend(workspace);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  reopened->reset();

  // Missing or non-workspace directories fail as before, with no lock file.
  EXPECT_TRUE(DiskCatalogWriter::OpenForAppend(Workspace("missing"))
                  .status()
                  .IsIOError());
  EXPECT_FALSE(std::filesystem::exists(Workspace("missing")));
  const auto plain = Workspace("plain");
  std::filesystem::create_directories(plain);
  EXPECT_TRUE(DiskCatalogWriter::OpenForAppend(plain).status().IsIOError());
  EXPECT_FALSE(std::filesystem::exists(plain / kDiskStoreLockName));

  const auto serial = Workspace("serial");
  for (int batch = 0; batch < 3; ++batch) {
    auto writer = batch == 0 ? DiskCatalogWriter::Create(serial, "db")
                             : DiskCatalogWriter::OpenForAppend(serial);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WriteIntRows(**writer, batch * 300, batch * 300 + 300);
  }
  EXPECT_EQ(HashWorkspace(workspace), HashWorkspace(serial));
}

// A writer seals each table once per session, whether the session created
// the workspace or appends to it: beginning a table name it already sealed
// is refused.
TEST_F(DiskStoreTest, TableBegunTwiceInOneSessionAlreadyExists) {
  const auto workspace = Workspace("ws");
  auto write_one_row = [](DiskCatalogWriter& writer, const std::string& table,
                          int64_t value) {
    ASSERT_TRUE(writer.BeginTable(table).ok()) << table;
    ASSERT_TRUE(writer.AddColumn("v", TypeId::kInteger).ok());
    ASSERT_TRUE(writer.AppendRow({Value::Integer(value)}).ok());
    ASSERT_TRUE(writer.FinishTable().ok());
  };
  auto create = DiskCatalogWriter::Create(workspace, "db");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  write_one_row(**create, "t", 1);
  EXPECT_TRUE((*create)->BeginTable("t").IsAlreadyExists());
  ASSERT_TRUE((*create)->Finish().ok());

  auto append = DiskCatalogWriter::OpenForAppend(workspace);
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  // "t" grows; "u" is new to the workspace.
  for (const char* table : {"t", "u"}) {
    write_one_row(**append, table, 2);
    EXPECT_TRUE((*append)->BeginTable(table).IsAlreadyExists()) << table;
  }
  auto catalog = (*append)->Finish();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_EQ((*catalog)->table_count(), 2);
  EXPECT_EQ((*catalog)->table(0).name(), "t");
  EXPECT_EQ((*catalog)->table(0).row_count(), 2);
  EXPECT_EQ((*catalog)->table(1).name(), "u");
  EXPECT_EQ((*catalog)->table(1).row_count(), 1);
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

TEST_F(DiskStoreTest, OlderManifestVersionsAreACleanError) {
  // Versions 1 to 4 were tab-separated text, and version 5 is read only at
  // its own version byte: reopening or appending to an older workspace
  // reports the unsupported header (reimport it) instead of aborting.
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
  const std::string current = ReadBytes(manifest);
  ASSERT_TRUE(DecodeStoreManifest(current).ok());
  // Byte 8 follows the magic "SpStrMan": the version.
  ASSERT_EQ(current[8], 5);
  std::vector<std::string> older;
  for (char version = 1; version <= 4; ++version) {
    older.push_back(std::string("spider-store\t") +
                    static_cast<char>('0' + version) +
                    "\ncatalog\tdb\nblocksize\t262144\nend\n");
    older.push_back(current);
    older.back()[8] = version;
  }
  for (const std::string& old : older) {
    SCOPED_TRACE(old.substr(0, 14));
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << old;
    for (const Status& status :
         {OpenDiskCatalog(workspace).status(),
          DiskCatalogWriter::OpenForAppend(workspace).status()}) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.message().find("missing or unsupported version header"),
                std::string::npos)
          << status.ToString();
    }
  }
}

// A manifest may only name column files inside its workspace: a table
// file path leaving it fails to open and to append, and the file it named
// keeps its bytes.
TEST_F(DiskStoreTest, ColumnFileNameMustStayInsideTheWorkspace) {
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
  const std::string original = ReadBytes(manifest);
  const auto victim = dir_->path() / "victim.col";
  const std::string victim_bytes = "bytes outside the workspace";
  std::ofstream(victim, std::ios::binary) << victim_bytes;

  for (const std::string& hostile :
       {std::string("../victim.col"), victim.string()}) {
    SCOPED_TRACE(hostile);
    std::ofstream(manifest, std::ios::binary | std::ios::trunc)
        << testing::ForgeStoreManifest(original, [&](ManifestData& data) {
             data.tables.at(0).file_name = hostile;
           });
    for (const Status& status :
         {OpenDiskCatalog(workspace).status(),
          DiskCatalogWriter::OpenForAppend(workspace).status()}) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.message().find(kDiskStoreManifestName),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("not a plain file name"),
                std::string::npos)
          << status.ToString();
    }
    EXPECT_EQ(ReadBytes(victim), victim_bytes);
  }
}

// Readers size allocations by the counts a manifest records (a join's
// hash table, a sort's buffer), so a count its column file cannot hold
// fails to open and to append, naming the manifest, instead of reaching
// an allocation.
TEST_F(DiskStoreTest, ManifestCountsMustFitTheColumnFile) {
  const auto workspace = Workspace("ws");
  {
    auto writer = DiskCatalogWriter::Create(workspace, "db");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
    ASSERT_TRUE((*writer)->AddColumn("w", TypeId::kString).ok());
    ASSERT_TRUE(
        (*writer)->AppendRow({Value::String("a"), Value::String("b")}).ok());
    ASSERT_TRUE((*writer)->FinishTable().ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const auto manifest = workspace / kDiskStoreManifestName;
  const std::string original = ReadBytes(manifest);
  const int64_t huge = int64_t{1} << 62;
  // The first column's non-null and distinct counts, and the table's row
  // count, which every column shares.
  const std::string non_null_and_distinct =
      testing::ForgeStoreManifest(original, [&](ManifestData& data) {
        ColumnStats& stats = data.tables.at(0).columns.at(0).stats;
        stats.non_null_count = huge;
        stats.distinct_count = huge;
      });
  const std::string rows =
      testing::ForgeStoreManifest(original, [&](ManifestData& data) {
        data.tables.at(0).row_count = huge;
      });
  for (const std::string& hostile : {non_null_and_distinct, rows}) {
    ASSERT_NE(hostile, original);
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << hostile;
    for (const Status& status :
         {OpenDiskCatalog(workspace).status(),
          DiskCatalogWriter::OpenForAppend(workspace).status()}) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.message().find(kDiskStoreManifestName),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("has counts its file cannot hold"),
                std::string::npos)
          << status.ToString();
    }
  }
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
