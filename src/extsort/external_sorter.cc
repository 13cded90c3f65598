#include "src/extsort/external_sorter.h"

#include <algorithm>
#include <optional>

#include "src/common/file_io.h"
#include "src/common/logging.h"
#include "src/common/tournament_tree.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

/// One set-file format (block size) for every run and every sort.
constexpr SortedSetWriterOptions kSetFormat{};

void SortDistinct(std::vector<std::string>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

}  // namespace

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
  SortDistinct(&buffer_);

  // The unique suffix keeps sorters apart that share a directory and a
  // prefix: two processes extracting one attribute into one workspace.
  fs::path run_path = UniqueTempPath(
      options_.spill_dir /
      (options_.run_prefix + "-" + std::to_string(runs_.size()) + ".spill"));
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetWriter> run,
                          SortedSetWriter::Create(run_path, kSetFormat));
  for (const std::string& v : buffer_) SPIDER_RETURN_NOT_OK(run->Append(v));
  SPIDER_RETURN_NOT_OK(run->Finish().status());
  runs_.push_back(std::move(run_path));
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

Result<SortedSetInfo> ExternalSorter::WriteSortedSet(const fs::path& path) {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  finished_ = true;
  SortDistinct(&buffer_);

  // The merge's sources: each spill run, read back as the set file it is,
  // then the sorted in-memory buffer as source `in_memory`. A run that
  // fails reads as exhausted, so its status is checked when it runs out.
  std::vector<std::unique_ptr<SortedSetReader>> runs;
  for (const fs::path& run : runs_) {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> reader,
                            SortedSetReader::Open(run));
    runs.push_back(std::move(reader));
  }
  const size_t in_memory = runs.size();
  size_t next_buffered = 0;
  auto peek = [&](size_t source) {
    return source == in_memory ? std::string_view(buffer_[next_buffered])
                               : runs[source]->Peek();
  };
  auto has_next = [&](size_t source) {
    return source == in_memory ? next_buffered < buffer_.size()
                               : runs[source]->HasNext();
  };

  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetWriter> writer,
                          SortedSetWriter::Create(path, kSetFormat));

  // K-way merge with duplicate elimination via a tournament tree of
  // source indexes: advancing the winning source replays one leaf-to-root
  // path (Refresh) instead of a binary heap's pop+push double sift.
  auto less = [&](int a, int b) {
    const std::string_view va = peek(static_cast<size_t>(a));
    const std::string_view vb = peek(static_cast<size_t>(b));
    if (va != vb) return va < vb;
    return a < b;
  };
  TournamentTree<decltype(less)> tree(static_cast<int>(in_memory + 1), less);
  for (size_t source = 0; source <= in_memory; ++source) {
    if (has_next(source)) {
      tree.Push(static_cast<int>(source));
    } else if (source < in_memory) {
      SPIDER_RETURN_NOT_OK(runs[source]->status());
    }
  }

  std::optional<std::string> last;
  while (!tree.empty()) {
    const auto source = static_cast<size_t>(tree.top());
    const std::string_view value = peek(source);
    if (!last || *last < value) {
      SPIDER_RETURN_NOT_OK(writer->Append(value));
      last = value;
    }
    if (source == in_memory) {
      ++next_buffered;
    } else {
      runs[source]->Skip();
    }
    if (has_next(source)) {
      tree.Refresh();
    } else {
      if (source < in_memory) SPIDER_RETURN_NOT_OK(runs[source]->status());
      tree.Pop();
    }
  }

  return writer->Finish();
}

}  // namespace spider
