#include "src/storage/column_store.h"

namespace spider {

namespace {

// Cursor over a materialized value vector. String values are viewed
// zero-copy; numeric values render into a reused scratch buffer.
class MemoryValueCursor final : public ValueCursor {
 public:
  explicit MemoryValueCursor(const std::vector<Value>* values)
      : values_(values) {}

  CursorStep Next(std::string_view* out) override {
    if (index_ >= values_->size()) return CursorStep::kEnd;
    const Value& v = (*values_)[index_++];
    if (v.is_null()) return CursorStep::kNull;
    if (v.is_string()) {
      *out = v.string();
    } else {
      scratch_ = v.ToCanonicalString();
      *out = scratch_;
    }
    return CursorStep::kValue;
  }

  const Status& status() const override { return status_; }

 private:
  const std::vector<Value>* values_;
  size_t index_ = 0;
  std::string scratch_;
  Status status_ = Status::OK();
};

}  // namespace

Status ColumnStore::VisitDistinctSorted(
    const std::function<Status(std::string_view)>& visit) const {
  (void)visit;
  return Status::NotImplemented("this column store keeps no sorted values");
}

Result<std::unique_ptr<ValueCursor>> MemoryColumnStore::OpenCursor() const {
  return std::unique_ptr<ValueCursor>(
      std::make_unique<MemoryValueCursor>(&values_));
}

int64_t MemoryColumnStore::ApproximateByteSize() const {
  int64_t bytes = 0;
  for (const Value& v : values_) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.is_string()) bytes += static_cast<int64_t>(v.string().size());
  }
  return bytes;
}

}  // namespace spider
