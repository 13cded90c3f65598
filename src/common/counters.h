// Counters shared by algorithm implementations so benchmarks can report the
// paper's I/O metric ("number of items read", Figure 5) and related stats.

#pragma once

#include <cstdint>
#include <string>

namespace spider {

/// \brief Mutable per-run counters. Algorithms increment these; harnesses
/// read them after a run. Plain (non-atomic): each instance belongs to one
/// task, and parallel runs Merge() per-task counters once the tasks are
/// done.
struct RunCounters {
  /// Attribute values read from sorted value sets ("items read", Fig. 5).
  int64_t tuples_read = 0;
  /// Whole set-file blocks bypassed via the footer zonemap
  /// (SortedSetReader::SkipToAtLeast). A skipped block's records are never
  /// decoded and never count into tuples_read.
  int64_t blocks_skipped = 0;
  /// Value-to-value comparisons performed.
  int64_t comparisons = 0;
  /// IND candidates actually tested (after pretests).
  int64_t candidates_tested = 0;
  /// Candidates eliminated by pretests before any data was scanned.
  int64_t candidates_pretest_pruned = 0;
  /// Rows produced / scanned by the SQL engine operators.
  int64_t engine_rows_scanned = 0;
  /// Sorted-set files opened (Sec. 4.2 scalability metric).
  int64_t files_opened = 0;
  /// Peak number of simultaneously open sorted-set files.
  int64_t peak_open_files = 0;
  /// Sorted value sets extracted (sorted fresh from column data).
  int64_t sets_extracted = 0;
  /// Sorted value sets reused from a persisted profile instead of
  /// re-extracting (fingerprints verified).
  int64_t sets_reused = 0;

  void Reset() { *this = RunCounters(); }

  /// Merges another counter set into this one.
  void Merge(const RunCounters& other) {
    tuples_read += other.tuples_read;
    blocks_skipped += other.blocks_skipped;
    comparisons += other.comparisons;
    candidates_tested += other.candidates_tested;
    candidates_pretest_pruned += other.candidates_pretest_pruned;
    engine_rows_scanned += other.engine_rows_scanned;
    files_opened += other.files_opened;
    if (other.peak_open_files > peak_open_files) {
      peak_open_files = other.peak_open_files;
    }
    sets_extracted += other.sets_extracted;
    sets_reused += other.sets_reused;
  }

  std::string ToString() const;
};

}  // namespace spider
