#include "src/ind/de_marchi.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/registry.h"

namespace spider {

Result<IdRunResult> DeMarchiAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  IdRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  // cand_refs[d] = referenced attribute ids still viable for dependent d,
  // sorted and distinct; `named` marks every attribute a candidate names.
  std::vector<std::vector<AttributeId>> cand_refs(attributes.size());
  std::vector<bool> named(attributes.size(), false);
  for (const AttributePair& candidate : candidates) {
    cand_refs[candidate.dependent].push_back(candidate.referenced);
    named[candidate.dependent] = true;
    named[candidate.referenced] = true;
    ++result.counters.candidates_tested;
  }
  for (std::vector<AttributeId>& refs : cand_refs) {
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  }

  // Preprocessing: the inverted index value -> sorted attribute-id list.
  // A stop during indexing decides nothing: finished=false, no INDs.
  std::unordered_map<std::string, std::vector<AttributeId>> index;
  for (size_t a = 0; a < attributes.size(); ++a) {
    if (!named[a]) continue;
    const AttributeId id = static_cast<AttributeId>(a);
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    SPIDER_ASSIGN_OR_RETURN(const Column* column,
                            catalog.ResolveAttribute(attributes[a]));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                            column->OpenCursor());
    std::string_view view;
    for (CursorStep step = cursor->Next(&view); step != CursorStep::kEnd;
         step = cursor->Next(&view)) {
      if (step == CursorStep::kNull) continue;
      ++result.counters.tuples_read;
      std::vector<AttributeId>& entry = index[std::string(view)];
      if (entry.empty() || entry.back() != id) entry.push_back(id);
    }
    SPIDER_RETURN_NOT_OK(cursor->status());
  }
  last_index_entries_ = static_cast<int64_t>(index.size());

  // Per dependent attribute: intersect the candidate set with the index
  // entry of every value. A dependent's survivors are confirmed only once
  // all its values are scanned, so the budget is polled between dependents.
  for (size_t d = 0; result.finished && d < attributes.size(); ++d) {
    std::vector<AttributeId>& refs = cand_refs[d];
    if (refs.empty()) continue;
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    // All of this dependent's candidates are decided below, whether they
    // survive the intersections (satisfied) or get erased (refuted).
    const int64_t decided_here = static_cast<int64_t>(refs.size());
    SPIDER_ASSIGN_OR_RETURN(const Column* column,
                            catalog.ResolveAttribute(attributes[d]));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                            column->OpenCursor());
    std::string_view view;
    for (CursorStep step = cursor->Next(&view); step != CursorStep::kEnd;
         step = cursor->Next(&view)) {
      if (refs.empty()) break;  // every candidate of d refuted
      if (step == CursorStep::kNull) continue;
      const std::vector<AttributeId>& containing =
          index.at(std::string(view));
      ++result.counters.comparisons;
      // refs := refs ∩ containing (both small; containing is sorted).
      refs.erase(std::remove_if(refs.begin(), refs.end(),
                                [&](AttributeId r) {
                                  return !std::binary_search(
                                      containing.begin(), containing.end(), r);
                                }),
                 refs.end());
    }
    SPIDER_RETURN_NOT_OK(cursor->status());
    for (AttributeId r : refs) {
      result.satisfied.push_back(
          AttributePair{static_cast<AttributeId>(d), r});
    }
    context.Step(decided_here);
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterDeMarchiAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.summary =
      "inverted-index discovery (De Marchi et al. [10]); large "
      "preprocessing footprint, no extractor needed";
  Status status = registry.Register(
      "de-marchi", capabilities, [](const AlgorithmConfig&) {
        return std::make_unique<DeMarchiAlgorithm>();
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
