// Byte-damage sweep over the two sorted, read-only file formats and the
// store manifest: every byte of a multi-block `.set` file, of a 3-block
// `.col` file and of a `spider_store.manifest` is set to 0x00, to 0xFF and
// to itself with the low bit flipped. Every reader of a damaged `.set` or
// `.col` copy must return OK or an IOError, and a workspace whose manifest
// is damaged must fail to open or run a sql-join profile to OK or an
// error. None may abort — ASan and UBSan run this suite like every other —
// and a failed append must leave the committed manifest as it was.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/common/value_codec.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/session.h"
#include "src/storage/disk_store.h"

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

  // Imports table "t" with one string column "v" of `rows` rows (every
  // seventh NULL, 20 distinct values) into workspace `name` at 1 KiB
  // blocks, and returns the catalog.
  std::unique_ptr<Catalog> WriteColumn(const std::string& name, int rows) {
    DiskStoreOptions options;
    options.block_bytes = 1024;
    auto writer = DiskCatalogWriter::Create(dir_->path() / name, "db", options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE((*writer)->BeginTable("t").ok());
    EXPECT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
    for (int i = 0; i < rows; ++i) {
      Value value = i % 7 == 0 ? Value::Null()
                               : Value::String("key-" + std::to_string(i % 20));
      EXPECT_TRUE((*writer)->AppendRow({std::move(value)}).ok());
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

TEST_F(DamageSweepTest, EveryDamagedColumnByteFailsCleanly) {
  std::unique_ptr<Catalog> catalog = WriteColumn("ws", 600);
  const Column& column = catalog->FindTable("t")->column(0);
  const auto* store = dynamic_cast<const DiskColumnStore*>(&column.store());
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->block_count(), 3);
  const fs::path path = store->path();
  const std::string original = ReadFile(path);
  const std::string manifest =
      ReadFile(dir_->path() / "ws" / kDiskStoreManifestName);

  // The first block's head and dictionary end where its codes begin.
  SpanReader head(original);
  uint64_t payload_bytes = 0;
  uint64_t rows = 0;
  uint64_t dict_count = 0;
  uint64_t dict_bytes = 0;
  ASSERT_TRUE(head.Varint(&payload_bytes) && head.Varint(&rows) &&
              head.Varint(&dict_count) && head.Varint(&dict_bytes));
  const size_t first_dict_end = head.position() + dict_bytes;
  ASSERT_LT(first_dict_end, original.size());

  // An append to a copy of the workspace holding the damaged column:
  // every step ends OK or in an IOError, and a failed one commits nothing.
  const fs::path copy = dir_->path() / "append";
  auto append = [&](const std::string& damaged) -> Status {
    fs::remove_all(copy);
    fs::create_directories(copy);
    WriteFile(copy / kDiskStoreManifestName, manifest);
    WriteFile(copy / path.filename(), damaged);
    auto writer = DiskCatalogWriter::OpenForAppend(copy);
    if (!writer.ok()) return writer.status();
    Status status = (*writer)->BeginTable("t");
    if (status.ok()) status = (*writer)->AddColumn("v", TypeId::kString);
    if (status.ok()) status = (*writer)->AppendRow({Value::String("key-new")});
    if (status.ok()) status = (*writer)->FinishTable();
    if (status.ok()) status = (*writer)->Finish().status();
    if (!status.ok()) {
      EXPECT_EQ(ReadFile(copy / kDiskStoreManifestName), manifest)
          << "a failed append changed the manifest: " << status.ToString();
    }
    return status;
  };

  int failed_scans = 0;
  int failed_appends = 0;
  for (size_t offset = 0; offset < original.size(); ++offset) {
    for (const char byte : DamagedBytes(original[offset])) {
      std::string damaged = original;
      damaged[offset] = byte;
      WriteFile(path, damaged);
      const Status scanned = ScanColumn(column);
      EXPECT_TRUE(OkOrIOError(scanned))
          << "scan, offset " << offset << " byte " << int{byte} << ": "
          << scanned.ToString();
      if (!scanned.ok()) {
        ++failed_scans;
        EXPECT_NE(scanned.message().find(path.string()), std::string::npos)
            << scanned.ToString();
      }
      if (offset >= first_dict_end) continue;
      const Status appended = append(damaged);
      EXPECT_TRUE(OkOrIOError(appended))
          << "append, offset " << offset << " byte " << int{byte} << ": "
          << appended.ToString();
      if (!appended.ok()) ++failed_appends;
    }
  }
  WriteFile(path, original);
  EXPECT_TRUE(ScanColumn(column).ok());
  EXPECT_GT(failed_scans, 0);
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
  int failed_opens = 0;
  int runs = 0;
  for (size_t offset = 0; offset < original.size(); ++offset) {
    for (const char byte : DamagedBytes(original[offset])) {
      std::string damaged = original;
      damaged[offset] = byte;
      WriteFile(path, damaged);
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

// A manifest that records 2^62 bytes for a small column whose block head
// claims 2^40 bytes: the workspace fails to open and to append, before any
// reader sizes a buffer by either number. With the manifest's own count,
// the scan fails on the head.
TEST_F(DamageSweepTest, ColumnByteCountsPastTheFileAreIOErrors) {
  const fs::path workspace = dir_->path() / "ws";
  fs::path column_file;
  {
    std::unique_ptr<Catalog> catalog = WriteColumn("ws", 3);
    column_file = dynamic_cast<const DiskColumnStore&>(
                      catalog->FindTable("t")->column(0).store())
                      .path();
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

  // Field 5 of the column record is its byte count.
  const fs::path manifest_path = workspace / kDiskStoreManifestName;
  std::string manifest = ReadFile(manifest_path);
  const size_t record = manifest.find("\ncolumn\t");
  ASSERT_NE(record, std::string::npos);
  size_t start = record + 1;
  for (int field = 0; field < 5; ++field) {
    start = manifest.find('\t', start) + 1;
  }
  const size_t end = manifest.find('\t', start);
  ASSERT_EQ(manifest.substr(start, end - start), std::to_string(column.size()));
  manifest.replace(start, end - start, std::to_string(uint64_t{1} << 62));
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

}  // namespace
}  // namespace spider
