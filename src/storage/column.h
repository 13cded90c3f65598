// Columns: typed, nullable value sequences with declared constraints.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/storage/column_store.h"
#include "src/storage/type.h"
#include "src/storage/value.h"

namespace spider {

/// \brief A named, typed column of nullable values.
///
/// Columns also carry the two declared constraints the paper's candidate
/// generation consults: uniqueness (referenced attributes must be unique)
/// and whether the column is a LOB (excluded from dependent attributes).
///
/// Values live in a ColumnStore: in memory by default, or in an out-of-core
/// disk store for catalogs opened/imported with the disk backend. Streaming
/// access (OpenCursor) works over either backend; the materialized accessors
/// (values(), value()) abort on out-of-core columns, so code above the
/// storage layer streams instead (spider_lint's column-values rule).
class Column {
 public:
  Column(std::string name, TypeId type, bool declared_unique = false)
      : Column(std::move(name), type, declared_unique,
               std::make_unique<MemoryColumnStore>()) {}

  /// A column backed by a caller-built (typically sealed disk) store.
  Column(std::string name, TypeId type, bool declared_unique,
         std::unique_ptr<ColumnStore> store)
      : name_(std::move(name)),
        type_(type),
        declared_unique_(declared_unique),
        store_(std::move(store)) {
    SPIDER_CHECK(store_ != nullptr);
  }

  const std::string& name() const { return name_; }
  TypeId type() const { return type_; }

  /// True when the schema declares a UNIQUE (or PRIMARY KEY) constraint.
  bool declared_unique() const { return declared_unique_; }
  void set_declared_unique(bool unique) { declared_unique_ = unique; }

  int64_t row_count() const { return store_->row_count(); }

  /// Number of non-NULL values.
  int64_t non_null_count() const { return store_->non_null_count(); }

  bool empty() const { return store_->row_count() == 0; }

  /// True when the column has at least one non-NULL value. Candidate
  /// generation only considers non-empty columns (paper Sec. 2).
  bool has_data() const { return store_->non_null_count() > 0; }

  /// True when values live outside RAM (cursor access only).
  bool out_of_core() const { return store_->out_of_core(); }

  const Value& value(int64_t row) const {
    return values()[static_cast<size_t>(row)];
  }
  const std::vector<Value>& values() const {
    const std::vector<Value>* v = store_->values();
    SPIDER_CHECK(v != nullptr)
        << "materialized access to out-of-core column '" << name_ << "'";
    return *v;
  }

  /// Streams the column in storage order; works over every backend.
  [[nodiscard]]
  Result<std::unique_ptr<ValueCursor>> OpenCursor() const {
    return store_->OpenCursor();
  }

  /// Import-time statistics kept by the backend, or nullptr when stats
  /// must be computed by scanning (see ComputeColumnStats).
  const ColumnStats* cached_stats() const { return store_->cached_stats(); }

  void Append(Value v) {
    Status status = store_->Append(std::move(v));
    SPIDER_CHECK(status.ok()) << "append to column '" << name_
                              << "': " << status.ToString();
  }

  void Reserve(int64_t rows) {
    if (auto* memory = dynamic_cast<MemoryColumnStore*>(store_.get())) {
      memory->Reserve(rows);
    }
  }

  const ColumnStore& store() const { return *store_; }

  /// Approximate footprint in bytes (used to report "database size" in
  /// benchmark tables): resident bytes in memory, file bytes on disk.
  int64_t ApproximateByteSize() const { return store_->ApproximateByteSize(); }

 private:
  std::string name_;
  TypeId type_;
  bool declared_unique_;
  std::unique_ptr<ColumnStore> store_;
};

}  // namespace spider
