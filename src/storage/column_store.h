// ColumnStore: the storage engine behind one column.
//
// A Column owns a ColumnStore that holds its values. Two backends exist:
// MemoryColumnStore (the default — the materialized std::vector<Value> the
// repository started with) and DiskColumnStore (src/storage/disk_store.h —
// fixed-size compressed blocks on disk with streaming access only). All
// scan paths consume columns through ValueCursor, so every algorithm that
// streams works identically over either backend.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/value.h"

namespace spider {

struct ColumnStats;

/// One step of a ValueCursor.
enum class CursorStep {
  kValue,  // a non-NULL value; *out holds its canonical string
  kNull,   // a NULL row (candidates and stats count these)
  kEnd,    // exhausted, or failed — check status()
};

/// \brief Streaming cursor over one column, top to bottom.
///
/// Yields every row in storage order as the canonical string IND discovery
/// compares (Value::ToCanonicalString). The view returned through `out`
/// stays valid until the next call — long enough for callers to hash, copy
/// or feed it to a sorter, which is all the scan paths do.
class ValueCursor {
 public:
  virtual ~ValueCursor() = default;

  /// Advances one row. On kValue, `*out` frames the canonical string.
  virtual CursorStep Next(std::string_view* out) = 0;

  /// Last I/O error, if any (clean end is not an error).
  virtual const Status& status() const = 0;
};

/// \brief Value storage behind one column: append during load, stream via
/// cursors afterwards.
class ColumnStore {
 public:
  virtual ~ColumnStore() = default;

  virtual int64_t row_count() const = 0;
  virtual int64_t non_null_count() const = 0;

  /// Appends one row during load. Out-of-core stores are written through
  /// their own writer and are sealed read-only, so they reject this.
  [[nodiscard]]
  virtual Status Append(Value v) = 0;

  /// Opens a fresh cursor at the first row.
  [[nodiscard]]
  virtual Result<std::unique_ptr<ValueCursor>> OpenCursor() const = 0;

  /// Approximate footprint in bytes: resident bytes for the memory
  /// backend, on-disk (compressed) bytes for the disk backend.
  virtual int64_t ApproximateByteSize() const = 0;

  /// True when the data lives outside RAM and only cursor access works.
  virtual bool out_of_core() const { return false; }

  /// The materialized value vector, or nullptr for out-of-core stores.
  /// Random-access paths (n-ary tuple scans, CSV export) require this.
  virtual const std::vector<Value>* values() const { return nullptr; }

  /// Statistics computed once at import time, when the backend keeps them
  /// (the disk store persists them in its manifest); nullptr when stats
  /// must be computed by scanning.
  virtual const ColumnStats* cached_stats() const { return nullptr; }

  /// True when the backend keeps the column's distinct values sorted (the
  /// disk store's block dictionaries), so VisitDistinctSorted() streams
  /// them without a sort.
  virtual bool keeps_sorted_distinct() const { return false; }

  /// Calls `visit` once with each distinct non-NULL value, in ascending
  /// byte order (as std::string compares them), and returns the first
  /// error it returns. Only stores that keeps_sorted_distinct() have it;
  /// the others return NotImplemented.
  [[nodiscard]]
  virtual Status VisitDistinctSorted(
      const std::function<Status(std::string_view)>& visit) const;
};

/// \brief The default backend: values materialized in a vector.
class MemoryColumnStore final : public ColumnStore {
 public:
  int64_t row_count() const override {
    return static_cast<int64_t>(values_.size());
  }
  int64_t non_null_count() const override { return non_null_count_; }

  [[nodiscard]]
  Status Append(Value v) override {
    if (!v.is_null()) ++non_null_count_;
    values_.push_back(std::move(v));
    return Status::OK();
  }

  [[nodiscard]]
  Result<std::unique_ptr<ValueCursor>> OpenCursor() const override;

  int64_t ApproximateByteSize() const override;

  const std::vector<Value>* values() const override { return &values_; }

  void Reserve(int64_t rows) { values_.reserve(static_cast<size_t>(rows)); }

 private:
  std::vector<Value> values_;
  int64_t non_null_count_ = 0;
};

}  // namespace spider
