#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "src/common/temp_dir.h"
#include "src/extsort/sorted_set_file.h"
#include "src/extsort/value_set_extractor.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class ValueSetExtractorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-extract-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  std::vector<std::string> ReadAll(const std::filesystem::path& path) {
    auto reader = SortedSetReader::Open(path);
    EXPECT_TRUE(reader.ok());
    std::vector<std::string> out;
    while ((*reader)->HasNext()) out.push_back((*reader)->Next());
    return out;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(ValueSetExtractorTest, SortsDedupsAndDropsNulls) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"b", "", "a", "b", "c", ""});
  ValueSetExtractor extractor(dir_->path());
  auto info = extractor.Extract(catalog, {"t", "c"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, 3);
  EXPECT_EQ(ReadAll(info->path), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(ValueSetExtractorTest, IntegerColumnsUseCanonicalStrings) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t");
  ASSERT_TRUE(t->AddColumn("n", TypeId::kInteger).ok());
  for (int64_t v : {9, 10, 100}) {
    ASSERT_TRUE(t->AppendRow({Value::Integer(v)}).ok());
  }
  ValueSetExtractor extractor(dir_->path());
  auto info = extractor.Extract(catalog, {"t", "n"});
  ASSERT_TRUE(info.ok());
  // Lexicographic order: "10" < "100" < "9".
  EXPECT_EQ(ReadAll(info->path), (std::vector<std::string>{"10", "100", "9"}));
}

TEST_F(ValueSetExtractorTest, CachesRepeatedExtraction) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"a"});
  ValueSetExtractor extractor(dir_->path());
  auto first = extractor.Extract(catalog, {"t", "c"});
  auto second = extractor.Extract(catalog, {"t", "c"});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->path, second->path);
}

TEST_F(ValueSetExtractorTest, LookupBeforeExtractFails) {
  ValueSetExtractor extractor(dir_->path());
  EXPECT_TRUE(extractor.Lookup({"t", "c"}).status().IsNotFound());
}

TEST_F(ValueSetExtractorTest, LookupAfterExtractSucceeds) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"a"});
  ValueSetExtractor extractor(dir_->path());
  ASSERT_TRUE(extractor.Extract(catalog, {"t", "c"}).ok());
  EXPECT_TRUE(extractor.Lookup({"t", "c"}).ok());
}

TEST_F(ValueSetExtractorTest, UnknownAttributeFails) {
  Catalog catalog;
  ValueSetExtractor extractor(dir_->path());
  EXPECT_TRUE(extractor.Extract(catalog, {"x", "y"}).status().IsNotFound());
}

TEST_F(ValueSetExtractorTest, ExtractAllPreservesOrder) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "c", {"a"});
  testing::AddStringColumn(&catalog, "t2", "c", {"b", "c"});
  ValueSetExtractor extractor(dir_->path());
  auto infos = extractor.ExtractAll(catalog, {{"t2", "c"}, {"t1", "c"}});
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos->size(), 2u);
  EXPECT_EQ((*infos)[0].distinct_count, 2);
  EXPECT_EQ((*infos)[1].distinct_count, 1);
}

TEST_F(ValueSetExtractorTest, EmptyColumnYieldsEmptySet) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"", ""});
  ValueSetExtractor extractor(dir_->path());
  auto info = extractor.Extract(catalog, {"t", "c"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, 0);
}

TEST_F(ValueSetExtractorTest, SpillsUnderTinyBudget) {
  Catalog catalog;
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) values.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "t", "c", values);
  ValueSetExtractorOptions options;
  options.sort_memory_budget_bytes = 128;
  ValueSetExtractor extractor(dir_->path(), options);
  auto info = extractor.Extract(catalog, {"t", "c"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, 300);
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Writes rows [from, to) of table "t" as `dir`/t.csv: a unique integer id,
// integers, doubles and strings that repeat every few dozen rows, each
// with NULL rows of its own, and a column that is NULL in every row.
void WriteRows(const std::filesystem::path& dir, int from, int to) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / "t.csv");
  out << "id,n,x,s,none\n";
  for (int i = from; i < to; ++i) {
    out << i << ",";
    if (i % 11 != 0) out << (i * 7) % 37;
    out << ",";
    if (i % 7 != 0) out << (i % 23) - 11 << ".5";
    out << ",";
    if (i % 5 != 0) out << "key-" << (i * 13) % 101;
    out << ",\n";
  }
}

// Removes the scratch directories of the extractors writing to `dir`, the
// directories their sorts spill into: a sort that spills afterwards fails.
void RemoveScratchDirs(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind(".extract.tmp-", 0) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
}

// A disk column's set is merged from its sorted block dictionaries, a
// memory column's sorted through the external sorter: the same rows give
// the same set bytes and SortedSetInfo either way, before and after an
// append, and the merge spills nothing even at a 128-byte sort budget.
TEST_F(ValueSetExtractorTest, DiskSetsEqualSortedSets) {
  namespace fs = std::filesystem;
  const fs::path root = dir_->path();
  WriteRows(root / "first", 0, 2000);
  WriteRows(root / "more", 2000, 2600);
  WriteRows(root / "all", 0, 2600);
  DiskStoreOptions store_options;
  store_options.block_bytes = 1024;
  auto writer = DiskCatalogWriter::Create(root / "ws", "db", store_options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto disk = ImportCsvDirectory(root / "first", CsvOptions{}, **writer);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ValueSetExtractorOptions options;
  options.sort_memory_budget_bytes = 128;

  auto expect_same_sets = [&](const Catalog& disk_catalog,
                              const fs::path& memory_csv,
                              const std::string& phase) {
    SCOPED_TRACE(phase);
    MemoryCatalogSink sink;
    auto memory = ImportCsvDirectory(memory_csv, CsvOptions{}, sink);
    ASSERT_TRUE(memory.ok()) << memory.status().ToString();
    const fs::path disk_sets = root / (phase + "-disk");
    const fs::path memory_sets = root / (phase + "-memory");
    ASSERT_TRUE(fs::create_directory(disk_sets));
    ASSERT_TRUE(fs::create_directory(memory_sets));
    ValueSetExtractor from_disk(disk_sets, options);
    ValueSetExtractor from_memory(memory_sets, options);
    // A composite set still sorts, and spills into the scratch directory
    // its extraction creates. With that directory gone, one more spill
    // fails; the unary disk extractions below must not need it.
    ASSERT_TRUE(
        from_disk.ExtractComposite(disk_catalog, {{"t", "n"}, {"t", "s"}})
            .ok());
    RemoveScratchDirs(disk_sets);
    EXPECT_TRUE(
        from_disk.ExtractComposite(disk_catalog, {{"t", "s"}, {"t", "n"}})
            .status()
            .IsIOError());
    const Table& table = *disk_catalog.FindTable("t");
    for (int c = 0; c < table.column_count(); ++c) {
      const AttributeRef attribute{"t", table.column(c).name()};
      SCOPED_TRACE(attribute.ToString());
      const auto& store =
          dynamic_cast<const DiskColumnStore&>(table.column(c).store());
      EXPECT_GT(store.block_count(), 1);
      auto merged = from_disk.Extract(disk_catalog, attribute);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto sorted = from_memory.Extract(**memory, attribute);
      ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
      EXPECT_EQ(merged->distinct_count, sorted->distinct_count);
      EXPECT_EQ(ReadFile(merged->path), ReadFile(sorted->path));
    }
  };

  const Table& table = *(*disk)->FindTable("t");
  ASSERT_EQ(table.column_count(), 5);
  EXPECT_EQ(table.column(1).type(), TypeId::kInteger);
  EXPECT_EQ(table.column(2).type(), TypeId::kDouble);
  EXPECT_EQ(table.column(3).type(), TypeId::kString);
  EXPECT_EQ(table.column(4).non_null_count(), 0);
  expect_same_sets(**disk, root / "first", "imported");

  auto appender = DiskCatalogWriter::OpenForAppend(root / "ws");
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  auto appended = ImportCsvDirectory(root / "more", CsvOptions{}, **appender);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ASSERT_EQ((*appended)->FindTable("t")->row_count(), 2600);
  expect_same_sets(**appended, root / "all", "appended");
}

TEST_F(ValueSetExtractorTest, SetFileNamesAreDeterministicAndCollisionFree) {
  // Names must not depend on extraction order (the old implementation
  // appended a cache-size ordinal), and attributes whose sanitized names
  // collide ("a.b_c" vs "a_b.c" both sanitize to "a.b_c"-ish strings) must
  // still land in distinct files.
  const AttributeRef first{"a", "b_c"};
  const AttributeRef second{"a_b", "c"};
  EXPECT_EQ(ValueSetExtractor::SetFileName(first),
            ValueSetExtractor::SetFileName(first));
  EXPECT_NE(ValueSetExtractor::SetFileName(first),
            ValueSetExtractor::SetFileName(second));

  Catalog catalog;
  testing::AddStringColumn(&catalog, "a", "b_c", {"x"});
  testing::AddStringColumn(&catalog, "a_b", "c", {"y"});
  // Two extractors visiting the attributes in opposite order produce the
  // same file for the same attribute.
  auto dir2 = TempDir::Make("spider-extract-order");
  ASSERT_TRUE(dir2.ok());
  ValueSetExtractor forward(dir_->path());
  ValueSetExtractor backward((*dir2)->path());
  ASSERT_TRUE(forward.Extract(catalog, first).ok());
  ASSERT_TRUE(forward.Extract(catalog, second).ok());
  ASSERT_TRUE(backward.Extract(catalog, second).ok());
  ASSERT_TRUE(backward.Extract(catalog, first).ok());
  auto f1 = forward.Lookup(first);
  auto b1 = backward.Lookup(first);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(f1->path.filename(), b1->path.filename());
  EXPECT_EQ(ReadAll(f1->path), (std::vector<std::string>{"x"}));
  auto f2 = forward.Lookup(second);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(ReadAll(f2->path), (std::vector<std::string>{"y"}));
}

TEST_F(ValueSetExtractorTest, ConcurrentExtractionIsSafeAndDeduplicated) {
  // Many threads hammer the same attributes: each attribute must be sorted
  // exactly once (one .set file per attribute, identical info everywhere),
  // with no torn files. Run under TSan to verify the locking.
  Catalog catalog;
  const int kAttributes = 8;
  std::vector<AttributeRef> attributes;
  for (int a = 0; a < kAttributes; ++a) {
    std::vector<std::string> values;
    for (int i = 0; i < 200; ++i) {
      values.push_back("a" + std::to_string(a) + "-" + std::to_string(i));
    }
    const std::string table = "t" + std::to_string(a);
    testing::AddStringColumn(&catalog, table, "c", values);
    attributes.push_back({table, "c"});
  }
  ValueSetExtractorOptions options;
  options.sort_memory_budget_bytes = 256;  // exercise spilling concurrently
  ValueSetExtractor extractor(dir_->path(), options);

  ThreadPool pool(8);
  std::vector<std::future<Result<SortedSetInfo>>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const AttributeRef& attr : attributes) {
      futures.push_back(pool.Submit(
          [&extractor, &catalog, attr]() {
            return extractor.Extract(catalog, attr);
          }));
    }
  }
  for (auto& future : futures) {
    auto info = future.get();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->distinct_count, 200);
  }
  // Exactly one .set file per attribute despite 4x duplicate requests.
  int set_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_->path())) {
    if (entry.path().extension() == ".set") ++set_files;
  }
  EXPECT_EQ(set_files, kAttributes);
}

TEST_F(ValueSetExtractorTest, ExtractAllOnPoolMatchesSerialOrder) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "t2", "c", {"c"});
  testing::AddStringColumn(&catalog, "t3", "c", {"d", "e", "f"});
  std::vector<AttributeRef> attributes = {
      {"t3", "c"}, {"t1", "c"}, {"t2", "c"}};
  ValueSetExtractor extractor(dir_->path());
  ThreadPool pool(4);
  auto infos = extractor.ExtractAll(catalog, attributes, &pool);
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos->size(), 3u);
  EXPECT_EQ((*infos)[0].distinct_count, 3);
  EXPECT_EQ((*infos)[1].distinct_count, 2);
  EXPECT_EQ((*infos)[2].distinct_count, 1);
}

// Names in `dir`, sorted.
std::vector<std::string> ListDir(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A set is staged under the extractor's own name and renamed into place
// once it is whole. An extraction that fails on a damaged block, after its
// writer took every value, leaves the published set as it was and no
// staged file behind.
TEST_F(ValueSetExtractorTest, FailedExtractionKeepsThePublishedSet) {
  namespace fs = std::filesystem;
  DiskStoreOptions store_options;
  store_options.block_bytes = 1024;
  auto writer =
      DiskCatalogWriter::Create(dir_->path() / "ws", "db", store_options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->BeginTable("t").ok());
  ASSERT_TRUE((*writer)->AddColumn("v", TypeId::kString).ok());
  // The largest value shares no prefix with any other, so its dictionary
  // entry holds it whole.
  const std::string largest = "zz-the-largest-value";
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        (*writer)->AppendRow({Value::String("v" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE((*writer)->AppendRow({Value::String(largest)}).ok());
  ASSERT_TRUE((*writer)->FinishTable().ok());
  auto catalog = (*writer)->Finish();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const auto& store = dynamic_cast<const DiskColumnStore&>(
      (*catalog)->FindTable("t")->column(0).store());
  ASSERT_GT(store.block_count(), 1);

  const fs::path sets = dir_->path() / "sets";
  ASSERT_TRUE(fs::create_directory(sets));
  fs::path published;
  {
    ValueSetExtractor extractor(sets);
    auto info = extractor.Extract(**catalog, {"t", "v"});
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    published = info->path;
  }
  const std::string published_bytes = ReadFile(published);
  const std::vector<std::string> listing = ListDir(sets);
  ASSERT_EQ(listing,
            std::vector<std::string>{published.filename().string()});

  // Raise the largest value's last byte: its block's dictionary still
  // ascends, but the merged maximum no longer matches the manifest's.
  std::string column = ReadFile(store.path());
  const size_t at = column.rfind(largest);
  ASSERT_NE(at, std::string::npos);
  ++column[at + largest.size() - 1];
  std::ofstream(store.path(), std::ios::binary | std::ios::trunc) << column;
  {
    ValueSetExtractor extractor(sets);
    const Status failed = extractor.Extract(**catalog, {"t", "v"}).status();
    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
    EXPECT_NE(failed.message().find(store.path().string()), std::string::npos)
        << failed.ToString();
    // Only the extractor's scratch directory is new while it lives.
    for (const std::string& name : ListDir(sets)) {
      EXPECT_TRUE(name == published.filename().string() ||
                  fs::is_directory(sets / name))
          << name;
    }
  }
  EXPECT_EQ(ListDir(sets), listing);
  EXPECT_EQ(ReadFile(published), published_bytes);
}

TEST_F(ValueSetExtractorTest, ConcurrentFailuresDoNotPoisonTheCache) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"a"});
  ValueSetExtractor extractor(dir_->path());
  ThreadPool pool(4);
  std::vector<std::future<Result<SortedSetInfo>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.Submit([&extractor, &catalog]() {
      return extractor.Extract(catalog, {"missing", "column"});
    }));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status().IsNotFound());
  }
  // The real attribute still extracts fine afterwards.
  EXPECT_TRUE(extractor.Extract(catalog, {"t", "c"}).ok());
}

}  // namespace
}  // namespace spider
