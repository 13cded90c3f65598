// Byte-damage sweep over the two sorted, read-only file formats and the
// store manifest: every byte of a multi-block `.set` file, of a `.col`
// table file whose two columns' blocks interleave and of a version-5
// `spider_store.manifest` is set to 0x00, to 0xFF and to itself with the
// low bit flipped. Every reader of a damaged `.set` or `.col` copy — the
// scan, the set extraction that merges a column's block dictionaries and
// the append — must return OK or an IOError, and a workspace whose
// manifest is damaged must fail to open or run a sql-join profile to OK or
// an error. None may abort — ASan and UBSan run this suite like every
// other — and a failed append must leave the committed manifest as it
// was. Named cases cover the hostile inputs the sweep reaches only by
// chance.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/common/value_codec.h"
#include "src/extsort/sorted_set_file.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/session.h"
#include "src/storage/disk_store.h"
#include "src/storage/store_manifest.h"
#include "tests/test_util.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The values each byte is damaged to.
std::array<char, 3> DamagedBytes(char original) {
  return {'\0', '\xff', static_cast<char>(original ^ 1)};
}

// 40 sorted values of 10 bytes.
std::vector<std::string> SetValues() {
  std::vector<std::string> values;
  for (int i = 0; i < 40; ++i) {
    values.push_back("value-" + std::to_string(1000 + 7 * i));
  }
  return values;
}

bool OkOrIOError(const Status& status) {
  return status.ok() || status.IsIOError();
}

// Appends one row to table "t" of the workspace `dir`, whose columns are
// the string "v" and `second` of type `type`, and commits; the first
// failing step's status. A failed append must leave the manifest as it
// was.
Status AppendRowToT(const fs::path& dir, const std::string& second,
                    TypeId type) {
  const std::string manifest = ReadFile(dir / kDiskStoreManifestName);
  auto writer = DiskCatalogWriter::OpenForAppend(dir);
  Status status = writer.status();
  if (status.ok()) status = (*writer)->BeginTable("t");
  if (status.ok()) status = (*writer)->AddColumn("v", TypeId::kString);
  if (status.ok()) status = (*writer)->AddColumn(second, type);
  if (status.ok()) {
    status = (*writer)->AppendRow({Value::String("key-new"), Value::Null()});
  }
  if (status.ok()) status = (*writer)->FinishTable();
  if (status.ok()) status = (*writer)->Finish().status();
  if (!status.ok()) {
    EXPECT_EQ(ReadFile(dir / kDiskStoreManifestName), manifest)
        << "a failed append changed the manifest: " << status.ToString();
  }
  return status;
}

// Copies the flat workspace `from` to a fresh `to`.
void CopyWorkspace(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to / entry.path().filename());
  }
}

// The manifest record of column `name` of table "t".
ManifestColumn& ColumnOfT(ManifestData& data, const std::string& name) {
  std::vector<ManifestColumn>& columns = data.tables.at(0).columns;
  const auto it =
      std::find_if(columns.begin(), columns.end(),
                   [&name](const ManifestColumn& c) { return c.name == name; });
  EXPECT_NE(it, columns.end()) << name;
  return it == columns.end() ? columns.at(0) : *it;
}

class DamageSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-damage-sweep-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  // Writes `values` as a set file of blocks of about 64 bytes.
  fs::path WriteSet(const std::vector<std::string>& values) {
    const fs::path path = dir_->FilePath("sweep.set");
    SortedSetWriterOptions options;
    options.target_block_bytes = 64;
    auto writer = SortedSetWriter::Create(path, options);
    EXPECT_TRUE(writer.ok());
    for (const std::string& value : values) {
      EXPECT_TRUE((*writer)->Append(value).ok());
    }
    EXPECT_TRUE((*writer)->Finish().ok());
    return path;
  }

  // Imports table "t" with two string columns of `rows` rows into
  // workspace `name` at 1 KiB blocks, and returns the catalog: "v" has 20
  // distinct values and every seventh row NULL, "w" 40 and every fifth, so
  // the two fill their blocks at different rows and their blocks
  // interleave in the table file.
  std::unique_ptr<Catalog> WriteTable(const std::string& name, int rows) {
    DiskStoreOptions options;
    options.block_bytes = 1024;
    auto writer = DiskCatalogWriter::Create(dir_->path() / name, "db", options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE((*writer)->BeginTable("t").ok());
    EXPECT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
    EXPECT_TRUE((*writer)->AddColumn("w", TypeId::kString).ok());
    for (int i = 0; i < rows; ++i) {
      Value v = i % 7 == 0 ? Value::Null()
                           : Value::String("key-" + std::to_string(i % 20));
      Value w = i % 5 == 0 ? Value::Null()
                           : Value::String("w" + std::to_string(i % 40));
      EXPECT_TRUE((*writer)->AppendRow({std::move(v), std::move(w)}).ok());
    }
    EXPECT_TRUE((*writer)->FinishTable().ok());
    auto catalog = (*writer)->Finish();
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return std::move(catalog).value();
  }

  std::unique_ptr<TempDir> dir_;
};

// Drains the set at `path` on one reader and runs SkipToAtLeast over every
// value in `keys` on another; returns both readers' statuses, or Open's
// twice when the file does not open.
std::array<Status, 2> ReadDamagedSet(const fs::path& path,
                                     const std::vector<std::string>& keys) {
  auto drained = SortedSetReader::Open(path);
  auto skipped = SortedSetReader::Open(path);
  if (!drained.ok() || !skipped.ok()) {
    return {drained.status(), skipped.status()};
  }
  while ((*drained)->HasNext()) (*drained)->Skip();
  for (const std::string& key : keys) (*skipped)->SkipToAtLeast(key);
  return {(*drained)->status(), (*skipped)->status()};
}

// Drains a cursor over `column` to kEnd; returns its status.
Status ScanColumn(const Column& column) {
  auto cursor = column.OpenCursor();
  if (!cursor.ok()) return cursor.status();
  std::string_view value;
  while ((*cursor)->Next(&value) != CursorStep::kEnd) {
  }
  return (*cursor)->status();
}

TEST_F(DamageSweepTest, EveryDamagedSetByteFailsCleanly) {
  const std::vector<std::string> values = SetValues();
  const fs::path path = WriteSet(values);
  {
    auto reader = SortedSetReader::Open(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_GE((*reader)->block_count(), 4);
  }
  const std::string original = ReadFile(path);
  int failed_reads = 0;
  for (size_t offset = 0; offset < original.size(); ++offset) {
    for (const char byte : DamagedBytes(original[offset])) {
      std::string damaged = original;
      damaged[offset] = byte;
      WriteFile(path, damaged);
      const std::array<Status, 2> statuses = ReadDamagedSet(path, values);
      for (const Status& status : statuses) {
        EXPECT_TRUE(OkOrIOError(status))
            << "offset " << offset << " byte " << int{byte} << ": "
            << status.ToString();
      }
      if (!statuses[0].ok()) ++failed_reads;
    }
  }
  // The sweep reached the readers' error paths, not only harmless bytes.
  EXPECT_GT(failed_reads, static_cast<int>(original.size()));
}

TEST_F(DamageSweepTest, EveryDamagedTableFileByteFailsCleanly) {
  std::unique_ptr<Catalog> catalog = WriteTable("ws", 600);
  const Table& table = *catalog->FindTable("t");
  std::vector<const DiskColumnStore*> stores;
  for (int c = 0; c < table.column_count(); ++c) {
    stores.push_back(
        dynamic_cast<const DiskColumnStore*>(&table.column(c).store()));
    ASSERT_NE(stores.back(), nullptr);
    ASSERT_GE(stores.back()->block_count(), 3);
  }
  const std::vector<uint64_t>& v_offsets = stores[0]->block_offsets();
  const std::vector<uint64_t>& w_offsets = stores[1]->block_offsets();
  ASSERT_TRUE(std::any_of(w_offsets.begin(), w_offsets.end(),
                          [&v_offsets](uint64_t offset) {
                            return v_offsets.front() < offset &&
                                   offset < v_offsets.back();
                          }))
      << "the two columns' blocks must interleave";
  const fs::path path = stores[0]->path();
  ASSERT_EQ(stores[1]->path(), path);
  const std::string original = ReadFile(path);

  // [offset, end of dictionary) of every block: the bytes an append reads
  // (the rescan reads heads, the seal-time merge dictionaries).
  std::vector<std::pair<size_t, size_t>> heads_and_dicts;
  for (const DiskColumnStore* store : stores) {
    for (const uint64_t offset : store->block_offsets()) {
      SpanReader head(std::string_view(original).substr(offset));
      uint64_t payload_bytes = 0;
      uint64_t rows = 0;
      uint64_t dict_count = 0;
      uint64_t dict_bytes = 0;
      ASSERT_TRUE(head.Varint(&payload_bytes) && head.Varint(&rows) &&
                  head.Varint(&dict_count) && head.Varint(&dict_bytes));
      heads_and_dicts.emplace_back(offset,
                                   offset + head.position() + dict_bytes);
    }
  }
  auto read_by_append = [&heads_and_dicts](size_t offset) {
    return std::any_of(heads_and_dicts.begin(), heads_and_dicts.end(),
                       [offset](const std::pair<size_t, size_t>& range) {
                         return range.first <= offset && offset < range.second;
                       });
  };

  // Appends go to a copy of the workspace holding the damaged table file,
  // set files to a directory of their own.
  const fs::path workspace = dir_->path() / "ws";
  const fs::path copy = dir_->path() / "append";
  const fs::path sets = dir_->path() / "sets";
  ASSERT_TRUE(fs::create_directory(sets));
  int failed_scans = 0;
  int failed_extractions = 0;
  int failed_appends = 0;
  for (size_t offset = 0; offset < original.size(); ++offset) {
    for (const char byte : DamagedBytes(original[offset])) {
      std::string damaged = original;
      damaged[offset] = byte;
      WriteFile(path, damaged);
      for (int c = 0; c < table.column_count(); ++c) {
        const Status scanned = ScanColumn(table.column(c));
        EXPECT_TRUE(OkOrIOError(scanned))
            << "scan " << c << ", offset " << offset << " byte " << int{byte}
            << ": " << scanned.ToString();
        if (!scanned.ok()) {
          ++failed_scans;
          EXPECT_NE(scanned.message().find(path.string()), std::string::npos)
              << scanned.ToString();
        }
      }
      if (!read_by_append(offset)) continue;
      // A fresh extractor, so no set is served from an earlier byte's cache.
      ValueSetExtractor extractor(sets);
      for (int c = 0; c < table.column_count(); ++c) {
        const Status extracted =
            extractor.Extract(*catalog, {"t", table.column(c).name()})
                .status();
        EXPECT_TRUE(OkOrIOError(extracted))
            << "extract " << c << ", offset " << offset << " byte "
            << int{byte} << ": " << extracted.ToString();
        if (!extracted.ok()) {
          ++failed_extractions;
          EXPECT_NE(extracted.message().find(path.string()), std::string::npos)
              << extracted.ToString();
        }
      }
      CopyWorkspace(workspace, copy);
      const Status appended = AppendRowToT(copy, "w", TypeId::kString);
      EXPECT_TRUE(OkOrIOError(appended))
          << "append, offset " << offset << " byte " << int{byte} << ": "
          << appended.ToString();
      if (!appended.ok()) ++failed_appends;
    }
  }
  WriteFile(path, original);
  for (int c = 0; c < table.column_count(); ++c) {
    EXPECT_TRUE(ScanColumn(table.column(c)).ok());
  }
  EXPECT_GT(failed_scans, 0);
  EXPECT_GT(failed_extractions, 0);
  EXPECT_GT(failed_appends, 0);
}

// The store manifest is parsed before anything else reads the workspace,
// and its counts size the allocations of what runs after it: a join's hash
// table, a sort's buffer, the sampling pretest's set.
TEST_F(DamageSweepTest, EveryDamagedStoreManifestByteFailsCleanly) {
  const fs::path workspace = dir_->path() / "ws";
  {
    auto writer = DiskCatalogWriter::Create(workspace, "db");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string table : {"t", "u"}) {
      ASSERT_TRUE((*writer)->BeginTable(table).ok());
      ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
      ASSERT_TRUE((*writer)->AddColumn("n", TypeId::kInteger).ok());
      const int rows = table == "t" ? 12 : 20;
      for (int i = 0; i < rows; ++i) {
        Value value = i % 5 == 4 ? Value::Null()
                                 : Value::String("key-" + std::to_string(i));
        ASSERT_TRUE(
            (*writer)->AppendRow({std::move(value), Value::Integer(i % 3)})
                .ok());
      }
      ASSERT_TRUE((*writer)->FinishTable().ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  const fs::path path = workspace / kDiskStoreManifestName;
  const std::string original = ReadFile(path);
  ASSERT_TRUE(DecodeStoreManifest(original).ok());
  const fs::path copy = dir_->path() / "append";
  int failed_opens = 0;
  int runs = 0;
  int appends = 0;
  for (size_t offset = 0; offset < original.size(); ++offset) {
    for (const char byte : DamagedBytes(original[offset])) {
      std::string damaged = original;
      damaged[offset] = byte;
      WriteFile(path, damaged);
      // An append to a copy ends in OK or an error, and a failed one
      // commits nothing (AppendRowToT checks).
      CopyWorkspace(workspace, copy);
      if (AppendRowToT(copy, "n", TypeId::kInteger).ok()) ++appends;
      Result<std::unique_ptr<Catalog>> catalog = OpenDiskCatalog(workspace);
      if (!catalog.ok()) {
        ++failed_opens;
        continue;
      }
      // The run may fail (a damaged extent, say); it must not abort.
      SpiderSession session(std::move(catalog).value());
      RunOptions options;
      options.approach = "sql-join";
      if (session.Run(options).ok()) ++runs;
    }
  }
  // The sweep reached both the parser's error paths and the run.
  EXPECT_GT(failed_opens, static_cast<int>(original.size()));
  EXPECT_GT(runs, 0);
  EXPECT_GT(appends, 0);
}

// A footer whose block-count varint takes five bytes claims billions of
// blocks; the count is bounded by the footer bytes before anything is
// reserved for it.
TEST_F(DamageSweepTest, FiveByteFooterBlockCountIsAnIOError) {
  const fs::path path = WriteSet(SetValues());
  std::string bytes = ReadFile(path);
  const uint64_t footer_offset =
      DecodeFixed64(bytes.data() + bytes.size() - kSortedSetTrailerBytes);
  ASSERT_LT(footer_offset + 5, bytes.size() - kSortedSetTrailerBytes);
  bytes.replace(footer_offset, 5, "\xff\xff\xff\xff\x0f");
  WriteFile(path, bytes);
  const Status status = SortedSetReader::Open(path).status();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.message().find("corrupt set-file footer"),
            std::string::npos)
      << status.ToString();
}

// A manifest that records 2^62 bytes for a small table file whose first
// block head claims 2^40 bytes: the workspace fails to open and to append,
// before any reader sizes a buffer by either number. With the manifest's
// own count, the scan fails on the head.
TEST_F(DamageSweepTest, ColumnByteCountsPastTheFileAreIOErrors) {
  const fs::path workspace = dir_->path() / "ws";
  fs::path column_file;
  {
    std::unique_ptr<Catalog> catalog = WriteTable("ws", 3);
    const auto& store = dynamic_cast<const DiskColumnStore&>(
        catalog->FindTable("t")->column(0).store());
    ASSERT_EQ(store.block_offsets(), std::vector<uint64_t>{0});
    column_file = store.path();
  }
  std::string column = ReadFile(column_file);
  ASSERT_GE(column.size(), 6u);
  column.replace(0, 6, "\x80\x80\x80\x80\x80\x20");  // 2^40
  WriteFile(column_file, column);
  const Status scanned =
      ScanColumn(OpenDiskCatalog(workspace).value()->FindTable("t")->column(0));
  EXPECT_TRUE(scanned.IsIOError()) << scanned.ToString();
  EXPECT_NE(scanned.message().find(column_file.string()), std::string::npos)
      << scanned.ToString();

  // The table's file bytes, and the first column's so that the columns
  // still add up to them: only the file on disk can tell.
  const fs::path manifest_path = workspace / kDiskStoreManifestName;
  const int64_t huge = int64_t{1} << 62;
  const std::string manifest = testing::ForgeStoreManifest(
      ReadFile(manifest_path), [&](ManifestData& data) {
        ManifestTable& table = data.tables.at(0);
        ASSERT_EQ(table.file_bytes, static_cast<int64_t>(column.size()));
        table.columns.at(0).bytes += huge - table.file_bytes;
        table.file_bytes = huge;
      });
  WriteFile(manifest_path, manifest);
  for (const Status& status :
       {OpenDiskCatalog(workspace).status(),
        DiskCatalogWriter::OpenForAppend(workspace).status()}) {
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.message().find("shorter than its manifest record"),
              std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(ReadFile(manifest_path), manifest);
}

// Blocks of different columns interleave, so a block must end by its
// column's next offset, not only by the table file's end: a head whose
// payload runs one byte into the column's next block fails the scan and
// the append's rescan, though the bytes it claims exist.
TEST_F(DamageSweepTest, BlockPastItsColumnsNextOffsetIsAnIOError) {
  const fs::path workspace = dir_->path() / "ws";
  std::unique_ptr<Catalog> catalog = WriteTable("ws", 600);
  const Table& table = *catalog->FindTable("t");
  const auto& v = dynamic_cast<const DiskColumnStore&>(table.column(0).store());
  const std::vector<uint64_t>& offsets = v.block_offsets();
  ASSERT_GE(offsets.size(), 2u);
  std::string file = ReadFile(v.path());
  SpanReader head(std::string_view(file).substr(offsets[0]));
  uint64_t payload_bytes = 0;
  ASSERT_TRUE(head.Varint(&payload_bytes));
  ASSERT_EQ(head.position(), 2u);
  ASSERT_LT(offsets[0] + 2 + payload_bytes, offsets[1]) << "blocks between";
  // The same two varint bytes, claiming a payload that ends at
  // offsets[1] + 1.
  const uint64_t longer = offsets[1] + 1 - offsets[0] - 2;
  ASSERT_LT(longer, uint64_t{1} << 14);
  file[offsets[0]] = static_cast<char>((longer & 0x7F) | 0x80);
  file[offsets[0] + 1] = static_cast<char>(longer >> 7);
  WriteFile(v.path(), file);

  const Status scanned = ScanColumn(table.column(0));
  EXPECT_TRUE(scanned.IsIOError()) << scanned.ToString();
  EXPECT_NE(scanned.message().find("corrupt block in column file"),
            std::string::npos)
      << scanned.ToString();
  EXPECT_TRUE(ScanColumn(table.column(1)).ok());
  const Status appended = AppendRowToT(workspace, "w", TypeId::kString);
  EXPECT_TRUE(appended.IsIOError()) << appended.ToString();
}

// A dictionary whose entries do not strictly ascend is a damaged block,
// though each entry decodes: the sorted "a1", "a2", "a3" with the suffix
// byte of the second made '9' read "a1", "a9", "a3". A merge that trusted
// the order would drop "a3" and an append would commit its count of two.
// The scan, the set extraction and the append each fail with an IOError
// naming the table file, and the failed append leaves the manifest as it
// was.
TEST_F(DamageSweepTest, DictionaryOutOfOrderIsAnIOError) {
  const fs::path workspace = dir_->path() / "ws";
  fs::path table_file;
  {
    auto writer = DiskCatalogWriter::Create(workspace, "db");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->BeginTable("t").ok());
    ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
    ASSERT_TRUE((*writer)->AddColumn("w", TypeId::kString).ok());
    for (const char* v : {"a1", "a2", "a3"}) {
      ASSERT_TRUE(
          (*writer)->AppendRow({Value::String(v), Value::String("x")}).ok());
    }
    ASSERT_TRUE((*writer)->FinishTable().ok());
    auto catalog = (*writer)->Finish();
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    table_file = dynamic_cast<const DiskColumnStore&>(
                     (*catalog)->FindTable("t")->column(0).store())
                     .path();
  }
  // v's front-coded dictionary: "a1", then 1 shared byte and "2", then 1
  // shared byte and "3".
  const std::string dict("\x00\x02" "a1" "\x01\x01" "2" "\x01\x01" "3", 10);
  std::string file = ReadFile(table_file);
  const size_t at = file.find(dict);
  ASSERT_NE(at, std::string::npos);
  file[at + 6] = '9';
  WriteFile(table_file, file);

  auto catalog = OpenDiskCatalog(workspace);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const fs::path sets = dir_->path() / "sets";
  ASSERT_TRUE(fs::create_directory(sets));
  ValueSetExtractor extractor(sets);
  for (const Status& status :
       {ScanColumn((*catalog)->FindTable("t")->column(0)),
        extractor.Extract(**catalog, {"t", "v"}).status(),
        AppendRowToT(workspace, "w", TypeId::kString)}) {
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.message().find(table_file.string()), std::string::npos)
        << status.ToString();
  }
  // The other column's block is whole.
  EXPECT_TRUE(ScanColumn((*catalog)->FindTable("t")->column(1)).ok());
  EXPECT_TRUE(extractor.Extract(**catalog, {"t", "w"}).ok());
}

// The seal merged a column's block dictionaries into its distinct count,
// min and max, so a set extracted from the same dictionaries must match
// them: a manifest that records another count, min or max opens, but the
// extraction fails with an IOError naming the table file.
TEST_F(DamageSweepTest, SetThatDisagreesWithItsStatisticsIsAnIOError) {
  const fs::path workspace = dir_->path() / "ws";
  fs::path table_file;
  {
    std::unique_ptr<Catalog> catalog = WriteTable("ws", 600);
    table_file = dynamic_cast<const DiskColumnStore&>(
                     catalog->FindTable("t")->column(0).store())
                     .path();
  }
  const fs::path manifest_path = workspace / kDiskStoreManifestName;
  const std::string original = ReadFile(manifest_path);
  const fs::path sets = dir_->path() / "sets";
  ASSERT_TRUE(fs::create_directory(sets));
  // "v" holds "key-0" to "key-19": 20 distinct values.
  const std::pair<const char*, std::function<void(ColumnStats&)>> edits[] = {
      {"distinct count", [](ColumnStats& stats) { stats.distinct_count = 19; }},
      {"min", [](ColumnStats& stats) { stats.min_value = "key-00"; }},
      {"max", [](ColumnStats& stats) { stats.max_value = "key-99"; }},
  };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    WriteFile(manifest_path,
              testing::ForgeStoreManifest(original, [&](ManifestData& data) {
                edit(ColumnOfT(data, "v").stats);
              }));
    auto catalog = OpenDiskCatalog(workspace);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    EXPECT_TRUE(ScanColumn((*catalog)->FindTable("t")->column(0)).ok());
    ValueSetExtractor extractor(sets);
    const Status status = extractor.Extract(**catalog, {"t", "v"}).status();
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_NE(status.message().find(table_file.string()), std::string::npos)
        << status.ToString();
    EXPECT_TRUE(extractor.Extract(**catalog, {"t", "w"}).ok());
  }
}

// Block offsets a reader would take on trust: one at or past the table
// file's committed bytes, a column's offsets out of order, and one block
// offset claimed by two columns. Each fails to open and to append, naming
// the manifest, and the failed append leaves the manifest as it was.
TEST_F(DamageSweepTest, HostileBlockOffsetsFailToOpen) {
  const fs::path workspace = dir_->path() / "ws";
  std::vector<uint64_t> v;
  std::vector<uint64_t> w;
  uint64_t table_bytes = 0;
  {
    std::unique_ptr<Catalog> catalog = WriteTable("ws", 600);
    const Table& table = *catalog->FindTable("t");
    v = dynamic_cast<const DiskColumnStore&>(table.column(0).store())
            .block_offsets();
    w = dynamic_cast<const DiskColumnStore&>(table.column(1).store())
            .block_offsets();
    table_bytes = fs::file_size(
        dynamic_cast<const DiskColumnStore&>(table.column(0).store()).path());
  }
  ASSERT_GE(v.size(), 2u);
  ASSERT_GE(w.size(), 2u);
  const fs::path manifest_path = workspace / kDiskStoreManifestName;
  const std::string original = ReadFile(manifest_path);
  auto with_offsets = [&original](const std::string& column,
                                  const std::vector<uint64_t>& offsets) {
    return testing::ForgeStoreManifest(original, [&](ManifestData& data) {
      ColumnOfT(data, column).block_offsets = offsets;
    });
  };
  std::vector<uint64_t> at_end = v;
  at_end.back() = table_bytes;
  std::vector<uint64_t> past_end = v;
  past_end.back() = uint64_t{1} << 62;
  std::vector<uint64_t> descending = v;
  std::swap(descending[0], descending[1]);
  std::vector<uint64_t> shared = w;
  shared.front() = v.front();
  ASSERT_LT(shared[0], shared[1]);
  struct Case {
    std::string hostile;
    const char* reason;
  };
  const Case cases[] = {
      {with_offsets("v", at_end), "past its table file's bytes"},
      {with_offsets("v", past_end), "past its table file's bytes"},
      {with_offsets("v", descending), "do not ascend"},
      {with_offsets("w", shared), "a block offset two columns share"},
  };
  for (const auto& [hostile, reason] : cases) {
    SCOPED_TRACE(reason);
    ASSERT_NE(hostile, original);
    WriteFile(manifest_path, hostile);
    for (const Status& status :
         {OpenDiskCatalog(workspace).status(),
          DiskCatalogWriter::OpenForAppend(workspace).status()}) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.message().find(kDiskStoreManifestName),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(reason), std::string::npos)
          << status.ToString();
    }
    EXPECT_EQ(ReadFile(manifest_path), hostile);
  }
}

}  // namespace
}  // namespace spider
