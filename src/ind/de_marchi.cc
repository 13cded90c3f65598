#include "src/ind/de_marchi.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/registry.h"

namespace spider {

Result<IndRunResult> DeMarchiAlgorithm::Run(
    const Catalog& catalog, const std::vector<IndCandidate>& candidates,
    RunContext& context) {
  IndRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  // Attribute ids for every attribute involved in any candidate.
  std::map<AttributeRef, int> ids;
  std::vector<AttributeRef> attrs;
  auto id_for = [&](const AttributeRef& attr) {
    auto it = ids.find(attr);
    if (it != ids.end()) return it->second;
    int id = static_cast<int>(attrs.size());
    attrs.push_back(attr);
    ids.emplace(attr, id);
    return id;
  };
  // cand_refs[d] = referenced attribute ids still viable for dependent d.
  std::vector<std::vector<int>> cand_refs;
  for (const IndCandidate& candidate : candidates) {
    int dep = id_for(candidate.dependent);
    int ref = id_for(candidate.referenced);
    if (static_cast<size_t>(dep) >= cand_refs.size() ||
        static_cast<size_t>(ref) >= cand_refs.size()) {
      cand_refs.resize(attrs.size());
    }
    auto& refs = cand_refs[static_cast<size_t>(dep)];
    if (std::find(refs.begin(), refs.end(), ref) == refs.end()) {
      refs.push_back(ref);
    }
    ++result.counters.candidates_tested;
  }
  cand_refs.resize(attrs.size());

  // Preprocessing: the inverted index value -> sorted attribute-id list.
  // A stop during indexing decides nothing: finished=false, no INDs.
  std::unordered_map<std::string, std::vector<int>> index;
  for (size_t a = 0; a < attrs.size(); ++a) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    SPIDER_ASSIGN_OR_RETURN(const Column* column,
                            catalog.ResolveAttribute(attrs[a]));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                            column->OpenCursor());
    std::string_view view;
    for (CursorStep step = cursor->Next(&view); step != CursorStep::kEnd;
         step = cursor->Next(&view)) {
      if (step == CursorStep::kNull) continue;
      ++result.counters.tuples_read;
      std::vector<int>& entry = index[std::string(view)];
      if (entry.empty() || entry.back() != static_cast<int>(a)) {
        entry.push_back(static_cast<int>(a));
      }
    }
    SPIDER_RETURN_NOT_OK(cursor->status());
  }
  last_index_entries_ = static_cast<int64_t>(index.size());

  // Per dependent attribute: intersect the candidate set with the index
  // entry of every value. A dependent's survivors are confirmed only once
  // all its values are scanned, so the budget is polled between dependents.
  for (size_t d = 0; result.finished && d < attrs.size(); ++d) {
    std::vector<int>& refs = cand_refs[d];
    if (refs.empty()) continue;
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    // All of this dependent's candidates are decided below, whether they
    // survive the intersections (satisfied) or get erased (refuted).
    const int64_t decided_here = static_cast<int64_t>(refs.size());
    SPIDER_ASSIGN_OR_RETURN(const Column* column,
                            catalog.ResolveAttribute(attrs[d]));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                            column->OpenCursor());
    std::string_view view;
    for (CursorStep step = cursor->Next(&view); step != CursorStep::kEnd;
         step = cursor->Next(&view)) {
      if (refs.empty()) break;  // every candidate of d refuted
      if (step == CursorStep::kNull) continue;
      const std::vector<int>& containing = index.at(std::string(view));
      ++result.counters.comparisons;
      // refs := refs ∩ containing (both small; containing is sorted).
      refs.erase(std::remove_if(refs.begin(), refs.end(),
                                [&](int r) {
                                  return !std::binary_search(
                                      containing.begin(), containing.end(), r);
                                }),
                 refs.end());
    }
    SPIDER_RETURN_NOT_OK(cursor->status());
    for (int r : refs) {
      result.satisfied.push_back(Ind{attrs[d], attrs[static_cast<size_t>(r)]});
    }
    context.Step(decided_here);
  }

  std::sort(result.satisfied.begin(), result.satisfied.end());
  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterDeMarchiAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.parallel_safe = true;  // shares only the thread-safe extractor
  capabilities.supports_out_of_core = true;  // scans via streaming cursors
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
