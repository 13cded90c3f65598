#include "src/ind/partial_ind.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/extsort/sorted_set_file.h"

namespace spider {

PartialIndFinder::PartialIndFinder(PartialIndOptions options)
    : options_(options) {
  SPIDER_CHECK(options_.extractor != nullptr)
      << "PartialIndOptions::extractor is required";
  SPIDER_CHECK_GE(options_.min_coverage, 0.0);
  SPIDER_CHECK_LE(options_.min_coverage, 1.0);
}

Result<std::vector<PartialInd>> PartialIndFinder::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunCounters* counters) {
  std::vector<PartialInd> results;
  results.reserve(candidates.size());

  for (const IndCandidate& candidate : candidates) {
    SPIDER_ASSIGN_OR_RETURN(
        SortedSetInfo dep_info,
        options_.extractor->Extract(catalog, candidate.dependent, counters));
    SPIDER_ASSIGN_OR_RETURN(
        SortedSetInfo ref_info,
        options_.extractor->Extract(catalog, candidate.referenced, counters));
    if (counters != nullptr) ++counters->candidates_tested;

    PartialInd measured;
    measured.candidate = candidate;
    measured.total = dep_info.distinct_count;

    // Maximum unmatched values tolerated by the threshold.
    const int64_t allowed_misses =
        measured.total -
        static_cast<int64_t>(
            std::ceil(options_.min_coverage * static_cast<double>(measured.total)));

    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> dep_reader,
                            SortedSetReader::Open(dep_info.path, counters));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> ref_reader,
                            SortedSetReader::Open(ref_info.path, counters));

    int64_t misses = 0;
    int64_t scanned = 0;
    while (dep_reader->HasNext()) {
      const std::string current_dep = dep_reader->Next();
      ++scanned;
      bool matched = false;
      while (ref_reader->HasNext()) {
        if (counters != nullptr) ++counters->comparisons;
        if (ref_reader->Peek() > current_dep) break;
        const std::string current_ref = ref_reader->Next();
        if (current_ref == current_dep) {
          matched = true;
          break;
        }
      }
      if (matched) {
        ++measured.matched;
      } else {
        ++misses;
        if (options_.early_stop && misses > allowed_misses) break;
      }
    }
    SPIDER_RETURN_NOT_OK(dep_reader->status());
    SPIDER_RETURN_NOT_OK(ref_reader->status());

    measured.satisfied = misses <= allowed_misses;
    const int64_t denom = options_.early_stop && !measured.satisfied
                              ? scanned
                              : measured.total;
    measured.coverage =
        denom > 0 ? static_cast<double>(measured.matched) / static_cast<double>(denom)
                  : 1.0;
    results.push_back(std::move(measured));
  }
  return results;
}

}  // namespace spider
