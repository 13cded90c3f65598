#include "src/extsort/external_sorter.h"

#include <algorithm>
#include <fstream>

#include "src/common/logging.h"
#include "src/common/tournament_tree.h"
#include "src/common/value_codec.h"
#include "src/common/file_io.h"

namespace spider {

namespace fs = std::filesystem;

ExternalSorter::ExternalSorter(ExternalSorterOptions options)
    : options_(std::move(options)) {
  SPIDER_CHECK_GT(options_.memory_budget_bytes, 0);
}

ExternalSorter::~ExternalSorter() {
  for (const auto& run : runs_) {
    std::error_code ec;
    fs::remove(run, ec);  // best effort
  }
}

Status ExternalSorter::Add(std::string value) {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  buffer_bytes_ += static_cast<int64_t>(value.size() + sizeof(std::string));
  buffer_.push_back(std::move(value));
  if (buffer_bytes_ >= options_.memory_budget_bytes) {
    return SpillBuffer();
  }
  return Status::OK();
}

Status ExternalSorter::SpillBuffer() {
  if (buffer_.empty()) return Status::OK();
  std::sort(buffer_.begin(), buffer_.end());
  buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());

  // The unique suffix keeps sorters apart that share a directory and a
  // prefix: two processes extracting one attribute into one workspace.
  fs::path run_path = UniqueTempPath(
      options_.spill_dir /
      (options_.run_prefix + "-" + std::to_string(runs_.size()) + ".spill"));
  std::ofstream out(run_path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create spill run " + run_path.string());
  for (const std::string& v : buffer_) {
    SPIDER_RETURN_NOT_OK(WriteValueRecord(out, v));
  }
  out.close();
  if (out.fail()) return Status::IOError("failed writing spill run");
  runs_.push_back(std::move(run_path));
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

namespace {

/// One source in the k-way merge: a spill run stream or the in-memory
/// buffer.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  virtual bool HasNext() = 0;
  virtual const std::string& Peek() = 0;
  virtual void Advance() = 0;
};

class RunSource final : public MergeSource {
 public:
  explicit RunSource(const fs::path& path) : in_(path, std::ios::binary) {
    Fill();
  }
  bool ok() const { return opened_ok_ && status_.ok(); }
  const Status& status() const { return status_; }

  bool HasNext() override { return current_.has_value(); }
  const std::string& Peek() override { return *current_; }
  void Advance() override {
    current_.reset();
    Fill();
  }

 private:
  void Fill() {
    if (!in_ && !eof_) {
      opened_ok_ = false;
      return;
    }
    std::string value;
    Status st;
    if (ReadValueRecord(in_, &value, &st)) {
      current_ = std::move(value);
    } else {
      eof_ = true;
      status_ = st;
    }
  }

  std::ifstream in_;
  bool opened_ok_ = true;
  bool eof_ = false;
  std::optional<std::string> current_;
  Status status_;
};

class VectorSource final : public MergeSource {
 public:
  explicit VectorSource(const std::vector<std::string>* values)
      : values_(values) {}
  bool HasNext() override { return index_ < values_->size(); }
  const std::string& Peek() override { return (*values_)[index_]; }
  void Advance() override { ++index_; }

 private:
  const std::vector<std::string>* values_;
  size_t index_ = 0;
};

}  // namespace

Result<SortedSetInfo> ExternalSorter::WriteSortedSet(const fs::path& path) {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  finished_ = true;

  std::sort(buffer_.begin(), buffer_.end());
  buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());

  std::vector<std::unique_ptr<MergeSource>> sources;
  for (const auto& run : runs_) {
    // The k-way merge is about to stream every run front to back; telling
    // the kernel now overlaps their readahead with the merge itself.
    AdviseFileWillNeed(run);
    auto src = std::make_unique<RunSource>(run);
    if (!src->ok()) {
      return Status::IOError("cannot reopen spill run " + run.string());
    }
    sources.push_back(std::move(src));
  }
  if (!buffer_.empty()) {
    sources.push_back(std::make_unique<VectorSource>(&buffer_));
  }

  // One set-file format (block size) for every sort.
  constexpr SortedSetWriterOptions kSetFormat{};
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetWriter> writer,
                          SortedSetWriter::Create(path, kSetFormat));

  // K-way merge with duplicate elimination via a tournament tree of
  // source indexes: advancing the winning source replays one leaf-to-root
  // path (Refresh) instead of a binary heap's pop+push double sift.
  auto less = [&sources](int a, int b) {
    const std::string& va = sources[static_cast<size_t>(a)]->Peek();
    const std::string& vb = sources[static_cast<size_t>(b)]->Peek();
    if (va != vb) return va < vb;
    return a < b;
  };
  TournamentTree<decltype(less)> tree(static_cast<int>(sources.size()), less);
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i]->HasNext()) tree.Push(static_cast<int>(i));
  }

  SortedSetInfo info;
  info.path = path;
  std::optional<std::string> last;
  while (!tree.empty()) {
    const size_t idx = static_cast<size_t>(tree.top());
    const std::string& value = sources[idx]->Peek();
    if (!last || *last < value) {
      SPIDER_RETURN_NOT_OK(writer->Append(value));
      if (!info.min_value) info.min_value = value;
      info.max_value = value;
      ++info.distinct_count;
      last = value;
    }
    sources[idx]->Advance();
    if (sources[idx]->HasNext()) {
      tree.Refresh();
    } else {
      tree.Pop();
    }
  }

  for (const auto& src : sources) {
    auto* run = dynamic_cast<RunSource*>(src.get());
    if (run != nullptr && !run->status().ok()) return run->status();
  }

  SPIDER_RETURN_NOT_OK(writer->Finish());
  info.block_count = writer->block_count();
  return info;
}

}  // namespace spider
