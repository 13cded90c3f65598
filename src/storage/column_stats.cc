#include "src/storage/column_stats.h"

#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace spider {

ColumnStats ComputeColumnStats(const Column& column) {
  if (const ColumnStats* cached = column.cached_stats()) return *cached;

  ColumnStats stats;
  stats.row_count = column.row_count();

  std::unordered_set<std::string> distinct;
  // The scan path only runs for backends without cached stats — today the
  // in-memory store, whose cursor cannot fail (disk columns always carry
  // import-time stats and return above) — so cursor failure here is a
  // programming error, not a reachable input condition.
  auto cursor = column.OpenCursor();
  SPIDER_CHECK(cursor.ok()) << cursor.status().ToString();
  std::string_view view;
  for (CursorStep step = (*cursor)->Next(&view); step != CursorStep::kEnd;
       step = (*cursor)->Next(&view)) {
    if (step == CursorStep::kNull) {
      ++stats.null_count;
      continue;
    }
    ++stats.non_null_count;
    std::string canon(view);
    if (!stats.min_value || canon < *stats.min_value) stats.min_value = canon;
    if (!stats.max_value || canon > *stats.max_value) stats.max_value = canon;
    distinct.insert(std::move(canon));
  }
  SPIDER_CHECK((*cursor)->status().ok()) << (*cursor)->status().ToString();
  stats.distinct_count = static_cast<int64_t>(distinct.size());
  stats.verified_unique =
      stats.non_null_count > 0 && stats.distinct_count == stats.non_null_count;
  return stats;
}

std::string ColumnStats::ToString() const {
  std::string out;
  out += "rows=" + FormatWithCommas(row_count);
  out += " nulls=" + FormatWithCommas(null_count);
  out += " distinct=" + FormatWithCommas(distinct_count);
  out += verified_unique ? " unique" : "";
  if (min_value) out += " min='" + *min_value + "'";
  if (max_value) out += " max='" + *max_value + "'";
  return out;
}

}  // namespace spider
