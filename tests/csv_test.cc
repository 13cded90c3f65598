#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/common/temp_dir.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-csv-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  std::filesystem::path WriteFile(const std::string& name,
                                  const std::string& content) {
    std::filesystem::path path = dir_->FilePath(name);
    std::ofstream out(path);
    out << content;
    return path;
  }

  std::unique_ptr<TempDir> dir_;
};

// Reads the one record `text` holds.
Result<std::vector<std::string>> ReadOneRecord(const std::string& text,
                                               char delimiter = ',') {
  std::istringstream in(text);
  CsvRecordReader reader(in, delimiter);
  std::vector<std::string> fields;
  SPIDER_ASSIGN_OR_RETURN(const bool read, reader.Next(&fields));
  EXPECT_TRUE(read);
  return fields;
}

TEST(CsvRecordReaderTest, PlainFields) {
  auto fields = ReadOneRecord("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvRecordReaderTest, EmptyFields) {
  EXPECT_EQ(*ReadOneRecord(",,"), (std::vector<std::string>{"", "", ""}));
}

TEST(CsvRecordReaderTest, QuotedFieldWithDelimiter) {
  EXPECT_EQ(*ReadOneRecord("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvRecordReaderTest, EscapedQuote) {
  EXPECT_EQ(*ReadOneRecord("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvRecordReaderTest, UnterminatedQuoteFails) {
  EXPECT_TRUE(ReadOneRecord("\"abc").status().IsInvalidArgument());
}

TEST(CsvRecordReaderTest, QuoteInsideUnquotedFieldFails) {
  EXPECT_TRUE(ReadOneRecord("ab\"c").status().IsInvalidArgument());
}

TEST(CsvRecordReaderTest, AlternateDelimiter) {
  EXPECT_EQ(*ReadOneRecord("a;b", ';'), (std::vector<std::string>{"a", "b"}));
}

TEST_F(CsvTest, ReadsWithTypeInference) {
  auto path = WriteFile("t.csv", "id,score,name\n1,2.5,alice\n2,3.5,bob\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->name(), "t");
  EXPECT_EQ((*table)->row_count(), 2);
  EXPECT_EQ((*table)->column(0).type(), TypeId::kInteger);
  EXPECT_EQ((*table)->column(1).type(), TypeId::kDouble);
  EXPECT_EQ((*table)->column(2).type(), TypeId::kString);
  EXPECT_EQ((*table)->column(2).value(1).string(), "bob");
}

TEST_F(CsvTest, IntegerNarrowerThanDouble) {
  auto path = WriteFile("t.csv", "a\n1\n2\n3\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->column(0).type(), TypeId::kInteger);
}

TEST_F(CsvTest, MixedNumericFallsBackToDouble) {
  auto path = WriteFile("t.csv", "a\n1\n2.5\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->column(0).type(), TypeId::kDouble);
}

TEST_F(CsvTest, TypesLinePinsTypes) {
  auto path = WriteFile("t.csv", "a,b\n#types:string,integer\n1,2\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->column(0).type(), TypeId::kString);
  EXPECT_EQ((*table)->column(0).value(0).string(), "1");
  EXPECT_EQ((*table)->column(1).value(0).integer(), 2);
}

TEST_F(CsvTest, TypesLineArityMismatchFails) {
  auto path = WriteFile("t.csv", "a,b\n#types:string\n1,2\n");
  EXPECT_TRUE(ReadCsvTable(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, EmptyFieldIsNull) {
  auto path = WriteFile("t.csv", "a,b\n1,\n,x\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->column(1).value(0).is_null());
  EXPECT_TRUE((*table)->column(0).value(1).is_null());
}

TEST_F(CsvTest, NullLiteralOption) {
  CsvOptions options;
  options.null_literal = "\\N";
  auto path = WriteFile("t.csv", "a\nx\n\\N\n");
  auto table = ReadCsvTable(path, options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->column(0).value(1).is_null());
}

TEST_F(CsvTest, StrictModeRejectsArityMismatch) {
  auto path = WriteFile("t.csv", "a,b\n1,2\n3\n");
  EXPECT_TRUE(ReadCsvTable(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, LenientModeSkipsBadRows) {
  CsvOptions options;
  options.strict = false;
  auto path = WriteFile("t.csv", "a,b\n1,2\n3\n4,5\n");
  auto table = ReadCsvTable(path, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 2);
}

TEST_F(CsvTest, MissingFileFails) {
  EXPECT_TRUE(ReadCsvTable(dir_->FilePath("nope.csv")).status().IsIOError());
}

TEST_F(CsvTest, EmptyFileFails) {
  auto path = WriteFile("t.csv", "");
  EXPECT_TRUE(ReadCsvTable(path).status().IsInvalidArgument());
}

TEST_F(CsvTest, CrLfLineEndings) {
  auto path = WriteFile("t.csv", "a,b\r\n1,x\r\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 1);
  EXPECT_EQ((*table)->column(1).value(0).string(), "x");
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  Table original("round");
  ASSERT_TRUE(original.AddColumn("id", TypeId::kInteger).ok());
  ASSERT_TRUE(original.AddColumn("note", TypeId::kString).ok());
  ASSERT_TRUE(original
                  .AppendRow({Value::Integer(1),
                              Value::String("with, comma and \"quote\"")})
                  .ok());
  ASSERT_TRUE(original.AppendRow({Value::Null(), Value::String("x")}).ok());

  auto path = dir_->FilePath("round.csv");
  ASSERT_TRUE(WriteCsvTable(original, path).ok());
  auto loaded = ReadCsvTable(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->row_count(), 2);
  EXPECT_EQ((*loaded)->column(0).type(), TypeId::kInteger);
  EXPECT_EQ((*loaded)->column(1).value(0).string(), "with, comma and \"quote\"");
  EXPECT_TRUE((*loaded)->column(0).value(1).is_null());
}

TEST_F(CsvTest, ReadDirectoryLoadsAllCsvFiles) {
  WriteFile("alpha.csv", "x\n1\n");
  WriteFile("beta.csv", "y\nfoo\n");
  WriteFile("ignored.txt", "not,a,csv\n");
  auto catalog = ReadCsvDirectory(dir_->path());
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->table_count(), 2);
  EXPECT_NE((*catalog)->FindTable("alpha"), nullptr);
  EXPECT_NE((*catalog)->FindTable("beta"), nullptr);
  EXPECT_EQ((*catalog)->FindTable("ignored"), nullptr);
}

TEST_F(CsvTest, ReadDirectoryRejectsFile) {
  auto path = WriteFile("t.csv", "a\n1\n");
  EXPECT_TRUE(ReadCsvDirectory(path).status().IsInvalidArgument());
}

// A directory that holds no CSV is a wrong path, not an empty database:
// the import fails naming it before the sink sees a table, so a disk
// workspace gets no table file and no manifest.
TEST_F(CsvTest, DirectoryWithoutCsvFilesFails) {
  const std::filesystem::path empty = dir_->path() / "empty";
  const std::filesystem::path text_only = dir_->path() / "text-only";
  ASSERT_TRUE(std::filesystem::create_directory(empty));
  ASSERT_TRUE(std::filesystem::create_directory(text_only));
  std::ofstream(text_only / "notes.txt") << "a,b\n1,2\n";
  for (const std::filesystem::path& dir : {empty, text_only}) {
    SCOPED_TRACE(dir.string());
    const Status memory = ReadCsvDirectory(dir).status();
    EXPECT_TRUE(memory.IsInvalidArgument()) << memory.ToString();
    EXPECT_NE(memory.message().find(dir.string()), std::string::npos)
        << memory.ToString();

    const std::filesystem::path workspace =
        dir_->path() / ("ws-" + dir.filename().string());
    {
      auto writer = DiskCatalogWriter::Create(workspace, "db");
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      const Status disk =
          ImportCsvDirectory(dir, CsvOptions{}, **writer).status();
      EXPECT_TRUE(disk.IsInvalidArgument()) << disk.ToString();
      EXPECT_NE(disk.message().find(dir.string()), std::string::npos)
          << disk.ToString();
    }
    EXPECT_FALSE(IsDiskCatalogDir(workspace));
    for (const auto& entry : std::filesystem::directory_iterator(workspace)) {
      EXPECT_NE(entry.path().extension(), ".col") << entry.path();
    }
  }
}

// ---- streaming-importer edge cases ----------------------------------------

TEST_F(CsvTest, QuotedFieldWithEmbeddedDelimiterAndNewline) {
  auto path = WriteFile("t.csv", "a,b\n\"x,1\nline2\",y\n\"p\"\"q\",z\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 2);
  EXPECT_EQ((*table)->column(0).value(0).string(), "x,1\nline2");
  EXPECT_EQ((*table)->column(1).value(0).string(), "y");
  EXPECT_EQ((*table)->column(0).value(1).string(), "p\"q");
}

TEST_F(CsvTest, CrLfTerminatorsWithQuotedCrLfPreserved) {
  // CRLF terminates records (the '\r' joins no field); a CRLF inside a
  // quoted field is data and survives.
  auto path = WriteFile("t.csv", "a,b\r\n\"x\r\ny\",1\r\n2,3\r\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 2);
  EXPECT_EQ((*table)->column(0).value(0).string(), "x\r\ny");
  EXPECT_EQ((*table)->column(1).value(1).ToCanonicalString(), "3");
}

TEST_F(CsvTest, TrailingEmptyColumnsAreNulls) {
  auto path = WriteFile("t.csv", "a,b,c,d\n1,x,,\n2,y,,\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 2);
  EXPECT_TRUE((*table)->column(2).value(0).is_null());
  EXPECT_TRUE((*table)->column(3).value(0).is_null());
  EXPECT_TRUE((*table)->column(3).value(1).is_null());
  EXPECT_FALSE((*table)->column(2).has_data());
}

TEST_F(CsvTest, FileWithoutTrailingNewline) {
  auto path = WriteFile("t.csv", "a,b\n1,x\n2,y");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 2);
  EXPECT_EQ((*table)->column(1).value(1).string(), "y");
}

TEST_F(CsvTest, RecordReaderHandlesMultiLineRecordsAndBlankLines) {
  std::istringstream in("a,\"b\nc\",d\r\n\nx,y,z\n");
  CsvRecordReader reader(in);
  std::vector<std::string> fields;
  auto first = reader.Next(&fields);
  ASSERT_TRUE(first.ok() && *first);
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b\nc", "d"}));
  EXPECT_FALSE(reader.last_record_was_blank());
  auto blank = reader.Next(&fields);
  ASSERT_TRUE(blank.ok() && *blank);
  EXPECT_TRUE(reader.last_record_was_blank());
  auto third = reader.Next(&fields);
  ASSERT_TRUE(third.ok() && *third);
  EXPECT_EQ(fields, (std::vector<std::string>{"x", "y", "z"}));
  auto end = reader.Next(&fields);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
}

using Records = std::vector<std::vector<std::string>>;

// Reads every record of `text` through one reused field vector, as the
// importer does; a malformed record reads as {"<error>"}.
Records ReadRecords(const std::string& text) {
  std::istringstream in(text);
  CsvRecordReader reader(in);
  Records records;
  std::vector<std::string> fields;
  while (true) {
    Result<bool> next = reader.Next(&fields);
    if (!next.ok()) {
      records.push_back({"<error>"});
      continue;
    }
    if (!*next) break;
    records.push_back(fields);
  }
  EXPECT_TRUE(fields.empty());
  return records;
}

TEST(CsvRecordReaderTest, ShortRecordAfterLongOneKeepsNoStaleBytesOrFields) {
  EXPECT_EQ(ReadRecords("a-long-first-field-past-any-sso-buffer,second,third\n"
                        "x\n"
                        "yy,z\n"),
            (Records{{"a-long-first-field-past-any-sso-buffer", "second",
                      "third"},
                     {"x"},
                     {"yy", "z"}}));
}

TEST(CsvRecordReaderTest, QuotedFieldAfterUnquotedOne) {
  EXPECT_EQ(ReadRecords("plain,value\n\"quo,ted\",\"say \"\"hi\"\"\"\n"),
            (Records{{"plain", "value"}, {"quo,ted", "say \"hi\""}}));
}

TEST(CsvRecordReaderTest, RecordAfterLenientSkip) {
  EXPECT_EQ(ReadRecords("1,2\nbad\"row,9\n4,5\n"),
            (Records{{"1", "2"}, {"<error>"}, {"4", "5"}}));
}

TEST_F(CsvTest, BlankLineInOneColumnTableIsNull) {
  auto table = ReadCsvTable(WriteFile("t.csv", "v\n1\n\n3\n"));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 3);
  EXPECT_EQ((*table)->column(0).value(0), Value::Integer(1));
  EXPECT_TRUE((*table)->column(0).value(1).is_null());
  EXPECT_EQ((*table)->column(0).value(2), Value::Integer(3));
}

TEST(CsvRecordReaderTest, LastRecordWithoutTrailingNewline) {
  EXPECT_EQ(ReadRecords("first,record\nz"),
            (Records{{"first", "record"}, {"z"}}));
  EXPECT_EQ(ReadRecords("first,record\r\nz,\r"),
            (Records{{"first", "record"}, {"z", ""}}));
}

TEST_F(CsvTest, RecordReaderUnterminatedQuoteFails) {
  std::istringstream in("\"abc\ndef");
  CsvRecordReader reader(in);
  std::vector<std::string> fields;
  EXPECT_TRUE(reader.Next(&fields).status().IsInvalidArgument());
}

TEST_F(CsvTest, LenientModeSkipsMalformedQuoting) {
  CsvOptions options;
  options.strict = false;
  auto path = WriteFile("t.csv", "a,b\n1,2\nbad\"row,9\n4,5\n");
  auto table = ReadCsvTable(path, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->row_count(), 2);
}

TEST_F(CsvTest, LenientModeSkipsMalformedFirstDataRecord) {
  // The malformed record sits where a "#types:" line could be — the
  // look-ahead must skip it in lenient mode like any other record.
  CsvOptions options;
  options.strict = false;
  auto path = WriteFile("t.csv", "a,b\nbad\"row,9\n4,5\n");
  auto table = ReadCsvTable(path, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->row_count(), 1);
  EXPECT_EQ((*table)->column(1).value(0).ToCanonicalString(), "5");
}

TEST_F(CsvTest, QuotedFieldStartingWithTypesMarkerIsData) {
  auto path = WriteFile("t.csv", "a,b\n\"#types:note\",y\n1,z\n");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 2);
  EXPECT_EQ((*table)->column(0).value(0).string(), "#types:note");
  EXPECT_EQ((*table)->column(1).value(1).string(), "z");
}

TEST_F(CsvTest, CrLfFileWithoutFinalNewlineStripsTrailingCr) {
  auto path = WriteFile("t.csv", "a,b\r\n1,x\r");
  auto table = ReadCsvTable(path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->row_count(), 1);
  EXPECT_EQ((*table)->column(1).value(0).string(), "x");
}

TEST_F(CsvTest, ImportsIntoDiskBackendIdenticalToMemory) {
  // A column larger than one storage block, with quoting hazards, streams
  // through the disk backend and reads back byte-identical to the
  // in-memory load of the same directory.
  std::string csv = "k,v\n#types:integer,string\n";
  for (int i = 0; i < 3000; ++i) {
    csv += std::to_string(i) + ",\"text,\n" + std::to_string(i % 800) +
           "\"\n";
  }
  WriteFile("big.csv", csv);
  WriteFile("small.csv", "x\n1\n\n2\n");

  auto memory = ReadCsvDirectory(dir_->path());
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();

  DiskStoreOptions disk_options;
  disk_options.block_bytes = 4096;
  auto writer = DiskCatalogWriter::Create(dir_->path() / "ws", "db",
                                          disk_options);
  ASSERT_TRUE(writer.ok());
  auto disk = ImportCsvDirectory(dir_->path(), CsvOptions{}, **writer);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  ASSERT_EQ((*disk)->table_count(), (*memory)->table_count());
  for (int t = 0; t < (*memory)->table_count(); ++t) {
    const Table& mem_table = (*memory)->table(t);
    const Table* disk_table = (*disk)->FindTable(mem_table.name());
    ASSERT_NE(disk_table, nullptr);
    ASSERT_EQ(disk_table->row_count(), mem_table.row_count());
    for (int c = 0; c < mem_table.column_count(); ++c) {
      const Column& mem_column = mem_table.column(c);
      const Column& disk_column = *disk_table->FindColumn(mem_column.name());
      EXPECT_EQ(disk_column.type(), mem_column.type());
      auto mem_cursor = mem_column.OpenCursor();
      auto disk_cursor = disk_column.OpenCursor();
      ASSERT_TRUE(mem_cursor.ok() && disk_cursor.ok());
      std::string_view mem_view;
      std::string_view disk_view;
      while (true) {
        const CursorStep mem_step = (*mem_cursor)->Next(&mem_view);
        const CursorStep disk_step = (*disk_cursor)->Next(&disk_view);
        ASSERT_EQ(static_cast<int>(mem_step), static_cast<int>(disk_step));
        if (mem_step == CursorStep::kEnd) break;
        if (mem_step == CursorStep::kValue) {
          ASSERT_EQ(disk_view, mem_view);
        }
      }
    }
  }
  const Column& big_v = *(*disk)->FindTable("big")->FindColumn("v");
  EXPECT_GT(dynamic_cast<const DiskColumnStore&>(big_v.store()).block_count(),
            1);
}

// The 3,000-row pair of the CLI smoke run, with repeating values and
// NULLs: at 1 KiB blocks every column of both tables spans several blocks,
// so each disk set is merged from several block dictionaries.
TEST_F(CsvTest, SmokePairGivesEveryColumnSeveralBlocks) {
  std::string parent = "id,code,name\n";
  for (int i = 0; i < 1000; ++i) {
    const std::string name = i % 13 == 0 ? "" : "n" + std::to_string(i % 37);
    parent += std::to_string(i) + ",p" + std::to_string(i) + "," + name + "\n";
  }
  std::string child = "parent_id,parent_code,note\n";
  for (int i = 0; i < 2000; ++i) {
    const int p = i * 7 % 1000;
    const std::string id = i % 17 == 0 ? "" : std::to_string(p);
    const std::string note = i % 5 == 0 ? "" : "x" + std::to_string(i % 11);
    child += id + ",p" + std::to_string(p) + "," + note + "\n";
  }
  WriteFile("parent.csv", parent);
  WriteFile("child.csv", child);

  DiskStoreOptions options;
  options.block_bytes = 1024;
  auto writer = DiskCatalogWriter::Create(dir_->path() / "ws", "db", options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto disk = ImportCsvDirectory(dir_->path(), CsvOptions{}, **writer);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  const std::vector<AttributeRef> attributes = (*disk)->AllAttributes();
  ASSERT_EQ(attributes.size(), 6u);
  for (const AttributeRef& attribute : attributes) {
    const auto& store = dynamic_cast<const DiskColumnStore&>(
        (*(*disk)->ResolveAttribute(attribute))->store());
    EXPECT_GT(store.block_count(), 1) << attribute.ToString();
  }
}

}  // namespace
}  // namespace spider
