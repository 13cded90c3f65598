#include "src/engine/operators.h"

#include <algorithm>
#include <unordered_set>

#include "src/engine/column_scan.h"

namespace spider::engine {

Result<int64_t> HashJoinMatchCount(const Column& dependent,
                                   const Column& referenced,
                                   RunCounters* counters) {
  // Build side: referenced column.
  std::unordered_set<std::string> build;
  build.reserve(static_cast<size_t>(referenced.non_null_count()));
  ColumnScan build_scan(referenced, counters);
  while (build_scan.HasNext()) {
    build.insert(build_scan.Next());
  }
  SPIDER_RETURN_NOT_OK(build_scan.status());
  // Probe side: dependent column. Full probe — no early termination.
  int64_t matched = 0;
  ColumnScan probe_scan(dependent, counters);
  while (probe_scan.HasNext()) {
    if (counters != nullptr) ++counters->comparisons;
    if (build.contains(probe_scan.Next())) ++matched;
  }
  SPIDER_RETURN_NOT_OK(probe_scan.status());
  return matched;
}

Result<std::vector<std::string>> SortDistinct(const Column& column,
                                              RunCounters* counters) {
  std::vector<std::string> values;
  values.reserve(static_cast<size_t>(column.non_null_count()));
  ColumnScan scan(column, counters);
  while (scan.HasNext()) values.push_back(scan.Next());
  SPIDER_RETURN_NOT_OK(scan.status());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

Result<int64_t> MinusCount(const Column& dependent, const Column& referenced,
                           RunCounters* counters) {
  // The engine sorts both inputs for every query (no reuse across tests).
  SPIDER_ASSIGN_OR_RETURN(std::vector<std::string> dep,
                          SortDistinct(dependent, counters));
  SPIDER_ASSIGN_OR_RETURN(std::vector<std::string> ref,
                          SortDistinct(referenced, counters));

  // Complete merge-based set difference.
  int64_t unmatched = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < dep.size()) {
    if (counters != nullptr) ++counters->comparisons;
    if (j >= ref.size() || dep[i] < ref[j]) {
      ++unmatched;
      ++i;
    } else if (dep[i] == ref[j]) {
      ++i;
      ++j;
    } else {
      ++j;
    }
  }
  return unmatched;
}

Result<int64_t> NotInCount(const Column& dependent, const Column& referenced,
                           RunCounters* counters) {
  int64_t unmatched = 0;
  ColumnScan outer(dependent, counters);
  while (outer.HasNext()) {
    const std::string dep_value = outer.Next();
    bool found = false;
    // Nested-loop inner scan, restarted for every outer row.
    ColumnScan inner(referenced, counters);
    while (inner.HasNext()) {
      if (counters != nullptr) ++counters->comparisons;
      if (inner.Next() == dep_value) {
        found = true;
        break;
      }
    }
    SPIDER_RETURN_NOT_OK(inner.status());
    if (!found) ++unmatched;
  }
  SPIDER_RETURN_NOT_OK(outer.status());
  return unmatched;
}

}  // namespace spider::engine
