// Bounded-memory external merge sort with duplicate elimination.
//
// Plays the role of the RDBMS "ORDER BY DISTINCT" export in the paper: raw
// attribute values go in, a sorted-distinct value file comes out. Values
// beyond the memory budget spill to sorted runs, each a set file in the
// format of sorted_set_file.h, which are k-way merged through
// SortedSetReader at the end. A run lives only as long as its sorter, which
// deletes it.

#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/extsort/sorted_set_file.h"

namespace spider {

/// Configuration for ExternalSorter.
struct ExternalSorterOptions {
  /// In-memory buffer budget in bytes before spilling a run. The default is
  /// small enough that unit tests exercise the spill path with modest data.
  int64_t memory_budget_bytes = 64LL << 20;
  /// Directory for spill runs. Must exist and be writable.
  std::filesystem::path spill_dir;
  /// File-name prefix for this sorter's spill runs, for telling them apart
  /// on disk. Run files never collide, even between sorters that share a
  /// spill directory and a prefix: each name carries a unique suffix
  /// (UniqueTempPath).
  std::string run_prefix = "run";
};

/// \brief Sorts and deduplicates an unbounded stream of strings using
/// bounded memory.
///
/// Usage:
///   ExternalSorter sorter(options);
///   sorter.Add(v) for each value;
///   sorter.WriteSortedSet(path) -> SortedSetInfo
class ExternalSorter {
 public:
  explicit ExternalSorter(ExternalSorterOptions options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Adds one value. May spill a sorted run to disk.
  [[nodiscard]]
  Status Add(std::string value);

  /// Merges all runs plus the in-memory buffer into a sorted-distinct file
  /// at `path`. The sorter is consumed; further Add() calls fail.
  [[nodiscard]]
  Result<SortedSetInfo> WriteSortedSet(const std::filesystem::path& path);

  /// Number of spill runs written so far (observable for tests).
  int spill_count() const { return static_cast<int>(runs_.size()); }

 private:
  [[nodiscard]]
  Status SpillBuffer();

  ExternalSorterOptions options_;
  std::vector<std::string> buffer_;
  int64_t buffer_bytes_ = 0;
  std::vector<std::filesystem::path> runs_;
  bool finished_ = false;
};

}  // namespace spider
