#include "src/ind/candidate.h"

#include <algorithm>
#include <unordered_map>

namespace spider {

std::vector<Ind> SortedInds(std::vector<Ind> inds) {
  std::sort(inds.begin(), inds.end());
  return inds;
}

InternedCandidates InternCandidates(
    const std::vector<IndCandidate>& candidates) {
  InternedCandidates interned;
  std::unordered_map<AttributeRef, AttributeId, AttributeRefHash> ids;
  auto intern = [&](const AttributeRef& attribute) {
    const auto [it, inserted] = ids.emplace(
        attribute, static_cast<AttributeId>(interned.attributes.size()));
    if (inserted) interned.attributes.push_back(attribute);
    return it->second;
  };
  interned.pairs.reserve(candidates.size());
  for (const IndCandidate& candidate : candidates) {
    const AttributeId dependent = intern(candidate.dependent);
    interned.pairs.push_back(
        AttributePair{dependent, intern(candidate.referenced)});
  }
  return interned;
}

std::string NaryInd::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < dependent.size(); ++i) {
    if (i > 0) out += ", ";
    out += dependent[i].ToString();
  }
  out += ") [= (";
  for (size_t i = 0; i < referenced.size(); ++i) {
    if (i > 0) out += ", ";
    out += referenced[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace spider
