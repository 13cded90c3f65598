// Catalog: the database instance being profiled, plus attribute addressing.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/table.h"

namespace spider {

/// \brief Addresses one attribute (table.column) within a catalog.
struct AttributeRef {
  std::string table;
  std::string column;

  std::string ToString() const { return table + "." + column; }

  friend bool operator==(const AttributeRef& a, const AttributeRef& b) {
    return a.table == b.table && a.column == b.column;
  }
  friend bool operator<(const AttributeRef& a, const AttributeRef& b) {
    if (a.table != b.table) return a.table < b.table;
    return a.column < b.column;
  }
};

/// Hash of an AttributeRef over both names, for unordered containers.
struct AttributeRefHash {
  size_t operator()(const AttributeRef& attr) const {
    const size_t table = std::hash<std::string_view>{}(attr.table);
    return table ^ (std::hash<std::string_view>{}(attr.column) +
                    0x9E3779B97F4A7C15ULL + (table << 6) + (table >> 2));
  }
};

/// \brief A declared foreign key (used as a gold standard in evaluation,
/// never consulted by the discovery algorithms themselves).
struct ForeignKey {
  AttributeRef referencing;
  AttributeRef referenced;

  std::string ToString() const {
    return referencing.ToString() + " -> " + referenced.ToString();
  }
  friend bool operator==(const ForeignKey& a, const ForeignKey& b) {
    return a.referencing == b.referencing && a.referenced == b.referenced;
  }
  friend bool operator<(const ForeignKey& a, const ForeignKey& b) {
    if (!(a.referencing == b.referencing)) return a.referencing < b.referencing;
    return a.referenced < b.referenced;
  }
};

/// Deterministic file-system-safe file stem for an attribute:
/// "<sanitized table.column>-<16-hex hash>". The sanitized human-readable
/// part is lossy ("a.b_c" and "a_b.c" collapse to the same string); the
/// hash of the unsanitized identity keeps distinct attributes in distinct
/// files independent of processing order. Names the sorted-set
/// extractor's ".set" files.
std::string AttributeFileStem(const AttributeRef& attr);

/// The same kind of stem for a table: "<sanitized table>-<16-hex hash of
/// the table name>". Names the disk column store's ".col" file, which
/// holds the blocks of every column of the table.
std::string TableFileStem(std::string_view table);

/// \brief A set of named tables — the undocumented data source whose schema
/// we discover.
class Catalog {
 public:
  explicit Catalog(std::string name = "db") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Creates an empty table; fails on duplicate names. Returns the table
  /// for schema definition and loading.
  [[nodiscard]]
  Result<Table*> CreateTable(const std::string& name);

  /// Adds a fully built table.
  [[nodiscard]]
  Status AddTable(std::unique_ptr<Table> table);

  int table_count() const { return static_cast<int>(tables_.size()); }
  const Table& table(int index) const { return *tables_[static_cast<size_t>(index)]; }
  Table& table(int index) { return *tables_[static_cast<size_t>(index)]; }

  const Table* FindTable(std::string_view name) const;
  Table* FindTable(std::string_view name);

  /// Resolves an attribute reference; NotFound if table or column is absent.
  [[nodiscard]]
  Result<const Column*> ResolveAttribute(const AttributeRef& ref) const;

  /// All attributes in the catalog, in table order.
  std::vector<AttributeRef> AllAttributes() const;

  /// Total number of attributes across tables.
  int attribute_count() const;

  /// Approximate total data size in bytes.
  int64_t ApproximateByteSize() const;

  /// True when any column lives out of core (disk backend): only streaming
  /// (cursor-based) approaches can profile such a catalog.
  bool out_of_core() const;

  /// Declared foreign keys (gold standard for evaluation only).
  void DeclareForeignKey(ForeignKey fk) { foreign_keys_.push_back(std::move(fk)); }
  const std::vector<ForeignKey>& declared_foreign_keys() const {
    return foreign_keys_;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace spider
