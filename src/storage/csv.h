// CSV import/export so users can profile real data dumps.
//
// Format: RFC-4180-style quoting ('"' quotes fields, '""' escapes a quote;
// quoted fields may span lines), first line is the header. An optional
// second header line of the form "#types:integer,string,..." pins column
// types; otherwise types are inferred from the data (integer ⊂ double ⊂
// string) in a separate streaming pass.
//
// Import is streaming: records parse straight into a CatalogSink row by
// row, so a multi-GB dump loads into the out-of-core disk backend without
// an intermediate in-memory table — peak import memory is one record plus
// the sink's own buffers.

#pragma once

#include <filesystem>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/catalog.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/table.h"

namespace spider {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// Text that denotes NULL in addition to the empty field.
  std::string null_literal = "";
  /// When true, a malformed record aborts the load; otherwise it is
  /// skipped.
  bool strict = true;
};

/// Which storage backend an import targets.
enum class StorageBackend {
  kMemory,  // materialized Catalog/Table/Column vectors (the default)
  kDisk,    // out-of-core block files in a workspace (disk_store.h)
};

/// \brief Streaming CSV record reader.
///
/// Unlike line-based parsing, records are assembled character by character,
/// so quoted fields may contain the delimiter, '\n' and "\r\n". A bare
/// "\r\n" or "\n" outside quotes terminates the record (the '\r' is not
/// part of any field); a lone '\r' stays in the field.
class CsvRecordReader {
 public:
  explicit CsvRecordReader(std::istream& in, char delimiter = ',')
      : in_(in), delimiter_(delimiter) {}

  /// Reads the next record into `*fields` (cleared first). Returns false at
  /// end of input. On a malformed record the rest of its physical line is
  /// consumed before the error returns, so lenient callers can skip it and
  /// continue with the next record.
  [[nodiscard]]
  Result<bool> Next(std::vector<std::string>* fields);

  /// True when the record just returned came from an empty physical line
  /// (such a "record" is one empty field — NULL for single-column tables,
  /// skippable noise otherwise).
  bool last_record_was_blank() const { return last_blank_; }

  /// True when the record just returned used quoting anywhere. A quoted
  /// field that happens to start with "#types:" is data, not the types
  /// header — the importer consults this flag.
  bool last_record_was_quoted() const { return last_quoted_; }

 private:
  std::istream& in_;
  char delimiter_;
  bool last_blank_ = false;
  bool last_quoted_ = false;
};

/// \brief Streams every "*.csv" file in `dir` into `sink` (sorted by file
/// name) and finishes the sink. This is the backend-agnostic quickstart
/// entry point: point it at a dump of an undocumented database with a
/// MemoryCatalogSink or a DiskCatalogWriter and run discovery. A directory
/// that holds no "*.csv" file is an InvalidArgument naming it, returned
/// before the sink sees a table.
[[nodiscard]]
Result<std::unique_ptr<Catalog>> ImportCsvDirectory(
    const std::filesystem::path& dir, const CsvOptions& options,
    CatalogSink& sink);

/// \brief Reads one table from a CSV file into memory. The table is named
/// after the file stem unless `table_name` is given.
[[nodiscard]]
Result<std::unique_ptr<Table>> ReadCsvTable(const std::filesystem::path& path,
                                            const CsvOptions& options = {},
                                            const std::string& table_name = "");

/// \brief Loads every "*.csv" file in `dir` into an in-memory catalog named
/// after the directory.
[[nodiscard]]
Result<std::unique_ptr<Catalog>> ReadCsvDirectory(
    const std::filesystem::path& dir, const CsvOptions& options = {});

/// Writes `table` as CSV with a "#types:" line (round-trips through
/// ReadCsvTable losslessly).
[[nodiscard]]
Status WriteCsvTable(const Table& table, const std::filesystem::path& path,
                     const CsvOptions& options = {});

/// \brief CatalogSink that writes each table as "<dir>/<table>.csv" (with a
/// "#types:" line, so reimport needs no inference pass), streaming rows
/// straight to the file. Finish() returns a schema-only catalog — column
/// types, constraints and declared foreign keys, no rows — because the data
/// lives in the files. The data generators use this to produce arbitrarily
/// large CSV dumps while holding one row in memory.
class CsvCatalogSink final : public CatalogSink {
 public:
  explicit CsvCatalogSink(std::filesystem::path dir, CsvOptions options = {});
  ~CsvCatalogSink() override;

  [[nodiscard]]
  Status BeginTable(const std::string& name) override;
  [[nodiscard]]
  Status AddColumn(std::string name, TypeId type,
                   bool declared_unique = false) override;
  [[nodiscard]]
  Status AppendRow(std::vector<Value> row) override;
  [[nodiscard]]
  Status FinishTable() override;
  void DeclareForeignKey(ForeignKey fk) override;
  [[nodiscard]]
  Result<std::unique_ptr<Catalog>> Finish() override;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spider
