#include "src/ind/algorithm.h"

namespace spider {

Result<IndRunResult> IndAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  const InternedCandidates interned = InternCandidates(candidates);
  SPIDER_ASSIGN_OR_RETURN(
      IdRunResult run,
      Run(catalog, interned.attributes, interned.pairs, context));
  IndRunResult result;
  result.satisfied = NamePairs<Ind>(interned.attributes, run.satisfied);
  result.counters = run.counters;
  result.seconds = run.seconds;
  result.finished = run.finished;
  return result;
}

}  // namespace spider
