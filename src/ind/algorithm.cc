#include "src/ind/algorithm.h"

namespace spider {

Result<IndRunResult> IndAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  const InternedCandidates interned = InternCandidates(candidates);
  const double start = context.elapsed_seconds();
  SPIDER_ASSIGN_OR_RETURN(
      const RunResult<AttributePair> run,
      Run(catalog, interned.attributes, interned.pairs, context));
  IndRunResult result{run, NamePairs<Ind>(interned.attributes, run.satisfied)};
  result.seconds = context.elapsed_seconds() - start;
  return result;
}

}  // namespace spider
