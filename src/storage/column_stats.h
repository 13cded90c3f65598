// Per-column statistics used by candidate pretests and discovery heuristics.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/storage/column.h"

namespace spider {

/// \brief Summary statistics of one column's non-NULL values.
///
/// min/max are in canonical (lexicographic) string form — the same order the
/// sorted value sets use — so the max-value pretest of Sec. 4.1 compares
/// exactly what the scan algorithms would compare.
struct ColumnStats {
  int64_t row_count = 0;
  int64_t null_count = 0;
  int64_t non_null_count = 0;
  /// Number of distinct non-NULL values (exact).
  int64_t distinct_count = 0;
  /// True when all non-NULL values are distinct (verified from data).
  bool verified_unique = false;
  /// Lexicographic min/max of canonical value strings; nullopt when the
  /// column has no data.
  std::optional<std::string> min_value;
  std::optional<std::string> max_value;

  std::string ToString() const;
};

/// Computes exact statistics. Columns whose backend kept import-time stats
/// (the disk store persists them in its manifest) answer from that cache
/// without touching data; otherwise the column is scanned once through a
/// streaming cursor (plus one hash set for distinct counting).
ColumnStats ComputeColumnStats(const Column& column);

}  // namespace spider
