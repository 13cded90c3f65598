#include "src/discovery/foreign_key.h"

#include <algorithm>
#include <map>
#include <set>

namespace spider {

namespace {

// Transitive closure of declared FK edges: pairs (dep, ref) reachable via
// one or more declared constraints.
std::set<std::pair<AttributeRef, AttributeRef>> FkClosure(
    const std::vector<ForeignKey>& fks) {
  std::map<AttributeRef, std::set<AttributeRef>> edges;
  std::set<AttributeRef> nodes;
  for (const ForeignKey& fk : fks) {
    edges[fk.referencing].insert(fk.referenced);
    nodes.insert(fk.referencing);
    nodes.insert(fk.referenced);
  }
  std::set<std::pair<AttributeRef, AttributeRef>> closure;
  for (const AttributeRef& start : nodes) {
    std::vector<AttributeRef> stack{start};
    std::set<AttributeRef> seen{start};
    while (!stack.empty()) {
      AttributeRef node = stack.back();
      stack.pop_back();
      auto it = edges.find(node);
      if (it == edges.end()) continue;
      for (const AttributeRef& next : it->second) {
        if (seen.insert(next).second) stack.push_back(next);
      }
    }
    for (const AttributeRef& reachable : seen) {
      if (!(reachable == start)) closure.emplace(start, reachable);
    }
  }
  return closure;
}

}  // namespace

double FkEvaluation::DetectableRecall() const {
  const int64_t detectable =
      static_cast<int64_t>(true_positives.size() + missed.size());
  if (detectable == 0) return 1.0;
  return static_cast<double>(true_positives.size()) /
         static_cast<double>(detectable);
}

FkEvaluation EvaluateForeignKeys(const Catalog& catalog,
                                 const std::vector<Ind>& satisfied_inds) {
  FkEvaluation eval;
  const std::vector<ForeignKey>& gold = catalog.declared_foreign_keys();
  std::set<std::pair<AttributeRef, AttributeRef>> declared;
  for (const ForeignKey& fk : gold) {
    declared.emplace(fk.referencing, fk.referenced);
  }
  const auto closure = FkClosure(gold);

  std::set<std::pair<AttributeRef, AttributeRef>> discovered;
  for (const Ind& ind : satisfied_inds) {
    discovered.emplace(ind.dependent, ind.referenced);
    const auto pair = std::make_pair(ind.dependent, ind.referenced);
    if (declared.contains(pair)) {
      eval.true_positives.push_back(ind);
    } else if (closure.contains(pair)) {
      eval.transitive.push_back(ind);
    } else {
      eval.false_positives.push_back(ind);
    }
  }

  for (const ForeignKey& fk : gold) {
    if (discovered.contains({fk.referencing, fk.referenced})) continue;
    // Distinguish truly missed FKs from undetectable ones (referencing
    // column holds no data, so no IND over values can witness it).
    auto column = catalog.ResolveAttribute(fk.referencing);
    const bool empty = !column.ok() || !(*column)->has_data();
    if (empty) {
      eval.undetectable.push_back(fk);
    } else {
      eval.missed.push_back(fk);
    }
  }
  return eval;
}

std::vector<ForeignKey> GuessForeignKeys(const CandidateGraph& graph,
                                         const std::vector<Ind>& satisfied_inds) {
  // Group INDs by dependent attribute; pick the referenced attribute with
  // the smallest distinct-value count (tightest superset).
  std::map<AttributeRef, std::vector<AttributeRef>> by_dependent;
  for (const Ind& ind : satisfied_inds) {
    by_dependent[ind.dependent].push_back(ind.referenced);
  }

  std::map<AttributeRef, int64_t> distinct;
  for (size_t id = 0; id < graph.attributes.size(); ++id) {
    distinct.emplace(graph.attributes[id], graph.stats[id].distinct_count);
  }
  auto distinct_count = [&distinct](const AttributeRef& attr) -> int64_t {
    const auto it = distinct.find(attr);
    return it == distinct.end() ? 0 : it->second;
  };

  std::vector<ForeignKey> guesses;
  for (auto& [dep, refs] : by_dependent) {
    const AttributeRef* best = nullptr;
    int64_t best_count = 0;
    for (const AttributeRef& ref : refs) {
      const int64_t count = distinct_count(ref);
      if (best == nullptr || count < best_count ||
          (count == best_count && ref < *best)) {
        best = &ref;
        best_count = count;
      }
    }
    if (best != nullptr) {
      guesses.push_back(ForeignKey{dep, *best});
    }
  }
  std::sort(guesses.begin(), guesses.end());
  return guesses;
}

}  // namespace spider
