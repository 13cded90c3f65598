#include "src/storage/csv.h"

#include <algorithm>
#include <fstream>
#include <optional>

#include "src/common/string_util.h"

namespace spider {

namespace fs = std::filesystem;

Result<bool> CsvRecordReader::Next(std::vector<std::string>* fields) {
  last_blank_ = false;
  last_quoted_ = false;
  // Fields fill the caller's strings in place, so their capacity carries
  // over from record to record; `done` counts the completed ones and the
  // vector is trimmed to them on every return.
  std::streambuf& in = *in_.rdbuf();
  constexpr int kEof = std::char_traits<char>::eof();
  size_t done = 0;
  auto start_field = [fields, &done]() -> std::string* {
    if (done == fields->size()) fields->emplace_back();
    std::string* field = &(*fields)[done];
    field->clear();
    return field;
  };
  std::string* current = start_field();
  bool in_quotes = false;
  int64_t chars_in_record = 0;

  // Consumes the rest of the current physical line so a lenient caller can
  // resume at the next record after a parse error.
  auto skip_line = [&in]() {
    int c;
    while ((c = in.sbumpc()) != kEof) {
      if (c == '\n') break;
    }
  };

  while (true) {
    const int c = in.sbumpc();
    if (c == kEof) {
      if (in_quotes) {
        fields->resize(done);
        return Status::InvalidArgument("unterminated quote at end of input");
      }
      if (chars_in_record == 0 && done == 0) {
        fields->clear();
        return false;
      }
      break;  // final record without trailing newline
    }
    if (in_quotes) {
      ++chars_in_record;
      if (c == '"') {
        if (in.sgetc() == '"') {
          in.sbumpc();
          ++chars_in_record;
          current->push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        current->push_back(static_cast<char>(c));
      }
      continue;
    }
    if (c == '"') {
      ++chars_in_record;
      if (!current->empty()) {
        skip_line();
        fields->resize(done);
        return Status::InvalidArgument("quote inside unquoted field");
      }
      in_quotes = true;
      last_quoted_ = true;
      continue;
    }
    if (c == delimiter_) {
      ++chars_in_record;
      ++done;
      current = start_field();
      continue;
    }
    if (c == '\r') {
      const int next = in.sgetc();
      if (next == '\n') {
        in.sbumpc();
        break;  // CRLF record terminator; the '\r' joins no field
      }
      if (next == kEof) {
        break;  // trailing '\r' of a CRLF file missing its final '\n'
      }
      ++chars_in_record;
      current->push_back('\r');  // a lone interior '\r' is data
      continue;
    }
    if (c == '\n') break;
    ++chars_in_record;
    current->push_back(static_cast<char>(c));
  }
  fields->resize(++done);
  last_blank_ = chars_in_record == 0;
  return true;
}

namespace {

bool IsNullField(const std::string& text, const CsvOptions& options) {
  return text.empty() ||
         (!options.null_literal.empty() && text == options.null_literal);
}

std::string EscapeCsvField(const std::string& field, char delimiter) {
  bool needs_quotes =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// One streaming pass over a CSV file: header (and "#types:" line) already
// consumed, data records pulled on demand.
struct CsvPass {
  std::unique_ptr<std::ifstream> in;
  std::unique_ptr<CsvRecordReader> reader;
  std::vector<std::string> header;
  std::vector<TypeId> declared_types;  // empty when the file has none
  // The first data record, when opening had to read ahead past the header
  // to rule out a "#types:" line.
  std::optional<std::vector<std::string>> pending;
  bool pending_blank = false;
};

Result<CsvPass> OpenCsvPass(const fs::path& path, const CsvOptions& options) {
  CsvPass pass;
  pass.in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*pass.in) return Status::IOError("cannot open " + path.string());
  pass.reader = std::make_unique<CsvRecordReader>(*pass.in, options.delimiter);

  SPIDER_ASSIGN_OR_RETURN(bool have_header, pass.reader->Next(&pass.header));
  if (!have_header) {
    return Status::InvalidArgument("empty CSV file: " + path.string());
  }
  if (pass.header.empty()) {
    return Status::InvalidArgument("CSV header has no columns: " +
                                   path.string());
  }

  // Optional "#types:" line. It contains no quoting, so rejoining the
  // record's fields with the delimiter reconstructs the physical line.
  std::vector<std::string> record;
  Result<bool> next = pass.reader->Next(&record);
  if (!next.ok() && !options.strict) {
    // Lenient mode skips a malformed first data record just like any
    // other (the reader already resynced to the next line); there is no
    // pending record and no "#types:" line.
    return pass;
  }
  SPIDER_ASSIGN_OR_RETURN(bool have_record, std::move(next));
  if (have_record) {
    // The types header is never quoted; a quoted field that begins with
    // "#types:" is data.
    if (!record.empty() && !pass.reader->last_record_was_quoted() &&
        StartsWith(record[0], "#types:")) {
      std::string line = record[0];
      for (size_t i = 1; i < record.size(); ++i) {
        line += options.delimiter;
        line += record[i];
      }
      for (const std::string& t :
           SplitString(std::string_view(line).substr(7), ',')) {
        SPIDER_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(TrimWhitespace(t)));
        pass.declared_types.push_back(type);
      }
      if (pass.declared_types.size() != pass.header.size()) {
        return Status::InvalidArgument("#types arity mismatch in " +
                                       path.string());
      }
    } else {
      pass.pending = std::move(record);
      pass.pending_blank = pass.reader->last_record_was_blank();
    }
  }
  return pass;
}

// Pulls the next loadable data record, applying the blank-line and arity
// rules: an empty physical line is a NULL row for single-column tables and
// skipped otherwise; malformed or arity-mismatched records abort in strict
// mode and are skipped in lenient mode. Returns false at end of file.
Result<bool> NextDataRecord(CsvPass& pass, const CsvOptions& options,
                            const fs::path& path,
                            std::vector<std::string>* fields) {
  while (true) {
    bool blank = false;
    if (pass.pending.has_value()) {
      *fields = std::move(*pass.pending);
      pass.pending.reset();
      blank = pass.pending_blank;
    } else {
      Result<bool> next = pass.reader->Next(fields);
      if (!next.ok()) {
        if (options.strict) return next.status();
        continue;
      }
      if (!*next) return false;
      blank = pass.reader->last_record_was_blank();
    }
    if (blank && pass.header.size() != 1) continue;
    if (fields->size() != pass.header.size()) {
      if (options.strict) {
        return Status::InvalidArgument("row arity mismatch in " +
                                       path.string());
      }
      continue;
    }
    return true;
  }
}

// Streaming type inference: the narrowest type that parses every non-NULL
// value of the column across one full pass (integer ⊂ double ⊂ string).
struct TypeSniff {
  bool can_int = true;
  bool can_double = true;
  bool saw_value = false;

  TypeId Resolve() const {
    if (!saw_value) return TypeId::kString;
    if (can_int) return TypeId::kInteger;
    if (can_double) return TypeId::kDouble;
    return TypeId::kString;
  }
};

Result<std::vector<TypeId>> SniffColumnTypes(const fs::path& path,
                                             const CsvOptions& options) {
  SPIDER_ASSIGN_OR_RETURN(CsvPass pass, OpenCsvPass(path, options));
  std::vector<TypeSniff> sniffs(pass.header.size());
  std::vector<std::string> fields;
  while (true) {
    SPIDER_ASSIGN_OR_RETURN(bool have,
                            NextDataRecord(pass, options, path, &fields));
    if (!have) break;
    for (size_t c = 0; c < fields.size(); ++c) {
      TypeSniff& sniff = sniffs[c];
      if (!sniff.can_int && !sniff.can_double) continue;
      const std::string& text = fields[c];
      if (IsNullField(text, options)) continue;
      sniff.saw_value = true;
      if (sniff.can_int && !Value::Parse(text, TypeId::kInteger).ok()) {
        sniff.can_int = false;
      }
      if (sniff.can_double && !Value::Parse(text, TypeId::kDouble).ok()) {
        sniff.can_double = false;
      }
    }
  }
  std::vector<TypeId> types;
  types.reserve(sniffs.size());
  for (const TypeSniff& sniff : sniffs) types.push_back(sniff.Resolve());
  return types;
}

// Streams one CSV file into `sink` as one table (named after the file stem
// unless `table_name` is given), after a type-sniffing pass when the file
// has no "#types:" line.
Status ImportCsvTable(const fs::path& path, const CsvOptions& options,
                      CatalogSink& sink, const std::string& table_name) {
  SPIDER_ASSIGN_OR_RETURN(CsvPass pass, OpenCsvPass(path, options));

  std::vector<TypeId> types = pass.declared_types;
  if (types.empty()) {
    // No "#types:" line: one streaming inference pass, then reopen for the
    // load pass — two sequential reads instead of a materialized table.
    SPIDER_ASSIGN_OR_RETURN(types, SniffColumnTypes(path, options));
    SPIDER_ASSIGN_OR_RETURN(pass, OpenCsvPass(path, options));
  }

  const std::string name = table_name.empty() ? path.stem().string() : table_name;
  SPIDER_RETURN_NOT_OK(sink.BeginTable(name));
  for (size_t c = 0; c < pass.header.size(); ++c) {
    SPIDER_RETURN_NOT_OK(
        sink.AddColumn(std::string(TrimWhitespace(pass.header[c])), types[c]));
  }

  std::vector<std::string> fields;
  std::vector<Value> row;
  while (true) {
    SPIDER_ASSIGN_OR_RETURN(bool have,
                            NextDataRecord(pass, options, path, &fields));
    if (!have) break;
    row.clear();
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      if (IsNullField(fields[c], options)) {
        row.push_back(Value::Null());
        continue;
      }
      SPIDER_ASSIGN_OR_RETURN(Value v, Value::Parse(fields[c], types[c]));
      row.push_back(std::move(v));
    }
    SPIDER_RETURN_NOT_OK(sink.AppendRow(std::move(row)));
  }
  return sink.FinishTable();
}

}  // namespace

Result<std::unique_ptr<Catalog>> ImportCsvDirectory(const fs::path& dir,
                                                    const CsvOptions& options,
                                                    CatalogSink& sink) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument("not a directory: " + dir.string());
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path());
    }
  }
  // A directory without a CSV is a wrong path, not an empty database.
  if (files.empty()) {
    return Status::InvalidArgument("no .csv file in " + dir.string());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    SPIDER_RETURN_NOT_OK(ImportCsvTable(file, options, sink, ""));
  }
  return sink.Finish();
}

namespace {

// Builds exactly one in-memory table (the ReadCsvTable entry point).
class SingleTableSink final : public CatalogSink {
 public:
  Status BeginTable(const std::string& name) override {
    if (table_ != nullptr) return Status::InvalidArgument("one table only");
    table_ = std::make_unique<Table>(name);
    return Status::OK();
  }
  Status AddColumn(std::string name, TypeId type, bool unique) override {
    return table_->AddColumn(std::move(name), type, unique);
  }
  Status AppendRow(std::vector<Value> row) override {
    return table_->AppendRow(std::move(row));
  }
  Status FinishTable() override { return Status::OK(); }
  void DeclareForeignKey(ForeignKey) override {}
  Result<std::unique_ptr<Catalog>> Finish() override {
    return Status::InvalidArgument("SingleTableSink builds a table");
  }

  std::unique_ptr<Table> TakeTable() { return std::move(table_); }

 private:
  std::unique_ptr<Table> table_;
};

}  // namespace

Result<std::unique_ptr<Table>> ReadCsvTable(const fs::path& path,
                                            const CsvOptions& options,
                                            const std::string& table_name) {
  SingleTableSink sink;
  SPIDER_RETURN_NOT_OK(ImportCsvTable(path, options, sink, table_name));
  return sink.TakeTable();
}

Result<std::unique_ptr<Catalog>> ReadCsvDirectory(const fs::path& dir,
                                                  const CsvOptions& options) {
  MemoryCatalogSink sink(dir.filename().string());
  return ImportCsvDirectory(dir, options, sink);
}

Status WriteCsvTable(const Table& table, const fs::path& path,
                     const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path.string());

  for (int c = 0; c < table.column_count(); ++c) {
    if (c > 0) out << options.delimiter;
    out << EscapeCsvField(table.column(c).name(), options.delimiter);
  }
  out << '\n';
  out << "#types:";
  for (int c = 0; c < table.column_count(); ++c) {
    if (c > 0) out << ',';
    out << TypeIdToString(table.column(c).type());
  }
  out << '\n';
  for (int64_t r = 0; r < table.row_count(); ++r) {
    for (int c = 0; c < table.column_count(); ++c) {
      if (c > 0) out << options.delimiter;
      const Value& v = table.column(c).value(r);
      if (!v.is_null()) {
        out << EscapeCsvField(v.ToCanonicalString(), options.delimiter);
      }
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failed: " + path.string());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CsvCatalogSink
// ---------------------------------------------------------------------------

class CsvCatalogSink::Impl {
 public:
  Impl(fs::path dir, CsvOptions options)
      : dir_(std::move(dir)),
        options_(options),
        schema_(std::make_unique<Catalog>(dir_.filename().string())) {}

  fs::path dir_;
  CsvOptions options_;
  std::unique_ptr<Catalog> schema_;
  Table* table_ = nullptr;  // schema entry of the open table
  std::ofstream out_;
  bool header_flushed_ = false;

  Status FlushHeader() {
    if (header_flushed_) return Status::OK();
    for (int c = 0; c < table_->column_count(); ++c) {
      if (c > 0) out_ << options_.delimiter;
      out_ << EscapeCsvField(table_->column(c).name(), options_.delimiter);
    }
    out_ << '\n';
    out_ << "#types:";
    for (int c = 0; c < table_->column_count(); ++c) {
      if (c > 0) out_ << ',';
      out_ << TypeIdToString(table_->column(c).type());
    }
    out_ << '\n';
    if (!out_) return Status::IOError("write failed in CSV sink");
    header_flushed_ = true;
    return Status::OK();
  }
};

CsvCatalogSink::CsvCatalogSink(fs::path dir, CsvOptions options)
    : impl_(std::make_unique<Impl>(std::move(dir), options)) {}

CsvCatalogSink::~CsvCatalogSink() = default;

Status CsvCatalogSink::BeginTable(const std::string& name) {
  if (impl_->table_ != nullptr) {
    return Status::InvalidArgument("previous table not finished");
  }
  SPIDER_ASSIGN_OR_RETURN(impl_->table_, impl_->schema_->CreateTable(name));
  const fs::path path = impl_->dir_ / (name + ".csv");
  impl_->out_.open(path, std::ios::trunc);
  if (!impl_->out_) {
    return Status::IOError("cannot create " + path.string());
  }
  impl_->header_flushed_ = false;
  return Status::OK();
}

Status CsvCatalogSink::AddColumn(std::string name, TypeId type,
                                 bool declared_unique) {
  if (impl_->table_ == nullptr) return Status::InvalidArgument("no open table");
  return impl_->table_->AddColumn(std::move(name), type, declared_unique);
}

Status CsvCatalogSink::AppendRow(std::vector<Value> row) {
  if (impl_->table_ == nullptr) return Status::InvalidArgument("no open table");
  if (static_cast<int>(row.size()) != impl_->table_->column_count()) {
    return Status::InvalidArgument("row arity mismatch in CSV sink");
  }
  SPIDER_RETURN_NOT_OK(impl_->FlushHeader());
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) impl_->out_ << impl_->options_.delimiter;
    if (!row[c].is_null()) {
      impl_->out_ << EscapeCsvField(row[c].ToCanonicalString(),
                                    impl_->options_.delimiter);
    }
  }
  impl_->out_ << '\n';
  if (!impl_->out_) return Status::IOError("write failed in CSV sink");
  return Status::OK();
}

Status CsvCatalogSink::FinishTable() {
  if (impl_->table_ == nullptr) return Status::InvalidArgument("no open table");
  SPIDER_RETURN_NOT_OK(impl_->FlushHeader());
  impl_->out_.close();
  if (impl_->out_.fail()) return Status::IOError("close failed in CSV sink");
  impl_->table_ = nullptr;
  return Status::OK();
}

void CsvCatalogSink::DeclareForeignKey(ForeignKey fk) {
  impl_->schema_->DeclareForeignKey(std::move(fk));
}

Result<std::unique_ptr<Catalog>> CsvCatalogSink::Finish() {
  if (impl_->table_ != nullptr) {
    return Status::InvalidArgument("table not finished");
  }
  if (impl_->schema_ == nullptr) {
    return Status::InvalidArgument("already finished");
  }
  return std::move(impl_->schema_);
}

}  // namespace spider
