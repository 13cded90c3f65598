#include "src/ind/nary_algorithm.h"

#include <algorithm>
#include <map>
#include <string>

namespace spider {

namespace {

// True when `sub` is a subprojection of `super` (same positional pairs).
bool IsSubprojection(const NaryInd& sub, const NaryInd& super) {
  if (sub.arity() > super.arity()) return false;
  size_t j = 0;
  for (int i = 0; i < sub.arity(); ++i) {
    bool found = false;
    for (; j < super.dependent.size(); ++j) {
      if (super.dependent[j] == sub.dependent[static_cast<size_t>(i)] &&
          super.referenced[j] == sub.referenced[static_cast<size_t>(i)]) {
        found = true;
        ++j;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

std::vector<UnaryPairs> GroupByTablePair(const std::vector<Ind>& unary) {
  std::map<std::pair<std::string, std::string>, UnaryPairs> pairs;
  for (const Ind& ind : unary) {
    pairs[{ind.dependent.table, ind.referenced.table}].emplace_back(
        ind.dependent, ind.referenced);
  }
  std::vector<UnaryPairs> out;
  for (auto& entry : pairs) {
    if (entry.second.size() >= 2) out.push_back(std::move(entry.second));
  }
  return out;
}

NaryInd CanonicalNaryInd(UnaryPairs pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  NaryInd ind;
  for (auto& [dep, ref] : pairs) {
    ind.dependent.push_back(std::move(dep));
    ind.referenced.push_back(std::move(ref));
  }
  return ind;
}

std::vector<NaryInd> Children(const NaryInd& ind) {
  std::vector<NaryInd> out;
  for (int skip = 0; skip < ind.arity(); ++skip) {
    NaryInd child;
    for (int i = 0; i < ind.arity(); ++i) {
      if (i == skip) continue;
      child.dependent.push_back(ind.dependent[static_cast<size_t>(i)]);
      child.referenced.push_back(ind.referenced[static_cast<size_t>(i)]);
    }
    out.push_back(std::move(child));
  }
  return out;
}

bool IsImplied(const NaryInd& candidate,
               const std::vector<NaryInd>& satisfied) {
  return std::any_of(satisfied.begin(), satisfied.end(),
                     [&candidate](const NaryInd& winner) {
                       return IsSubprojection(candidate, winner);
                     });
}

std::vector<NaryInd> MaximalInds(const std::vector<NaryInd>& satisfied) {
  std::vector<NaryInd> out;
  for (const NaryInd& ind : satisfied) {
    const bool subsumed = std::any_of(
        satisfied.begin(), satisfied.end(), [&ind](const NaryInd& other) {
          return ind.arity() < other.arity() && IsSubprojection(ind, other);
        });
    if (!subsumed) out.push_back(ind);
  }
  return out;
}

}  // namespace spider
