// IND candidates and satisfied INDs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/catalog.h"

namespace spider {

/// \brief An unchecked unary IND candidate "dependent ⊆ referenced".
struct IndCandidate {
  AttributeRef dependent;
  AttributeRef referenced;

  std::string ToString() const {
    return dependent.ToString() + " [= " + referenced.ToString();
  }

  friend bool operator==(const IndCandidate& a, const IndCandidate& b) {
    return a.dependent == b.dependent && a.referenced == b.referenced;
  }
  friend bool operator<(const IndCandidate& a, const IndCandidate& b) {
    if (!(a.dependent == b.dependent)) return a.dependent < b.dependent;
    return a.referenced < b.referenced;
  }
};

/// \brief A satisfied unary inclusion dependency: every non-NULL value of
/// `dependent` occurs in `referenced`.
struct Ind {
  AttributeRef dependent;
  AttributeRef referenced;

  std::string ToString() const {
    return dependent.ToString() + " [= " + referenced.ToString();
  }

  friend bool operator==(const Ind& a, const Ind& b) {
    return a.dependent == b.dependent && a.referenced == b.referenced;
  }
  friend bool operator<(const Ind& a, const Ind& b) {
    if (!(a.dependent == b.dependent)) return a.dependent < b.dependent;
    return a.referenced < b.referenced;
  }
};

/// Sorts and returns INDs (handy for deterministic test assertions).
std::vector<Ind> SortedInds(std::vector<Ind> inds);

/// Dense index of an attribute in a run's attribute table: the generator's
/// CandidateGraph::attributes, or a table an adapter interned from names.
using AttributeId = uint32_t;

/// A unary candidate or satisfied IND "dependent ⊆ referenced" by attribute
/// id: what the session, the partitioners and the verifiers pass around.
/// Names are attached only at the report edge (NamePairs).
struct AttributePair {
  AttributeId dependent = 0;
  AttributeId referenced = 0;

  friend bool operator==(const AttributePair& a, const AttributePair& b) {
    return a.dependent == b.dependent && a.referenced == b.referenced;
  }
  friend bool operator<(const AttributePair& a, const AttributePair& b) {
    if (a.dependent != b.dependent) return a.dependent < b.dependent;
    return a.referenced < b.referenced;
  }
};

/// Candidates given by name, re-expressed by id over a table of the
/// attributes they name, in first-appearance order (a candidate's
/// dependent before its referenced attribute).
struct InternedCandidates {
  std::vector<AttributeRef> attributes;
  std::vector<AttributePair> pairs;
};
InternedCandidates InternCandidates(
    const std::vector<IndCandidate>& candidates);

/// The pairs by name, in the same order, as IndCandidate or Ind.
template <typename Named>
std::vector<Named> NamePairs(const std::vector<AttributeRef>& attributes,
                             const std::vector<AttributePair>& pairs) {
  std::vector<Named> named;
  named.reserve(pairs.size());
  for (const AttributePair& pair : pairs) {
    named.push_back(
        Named{attributes[pair.dependent], attributes[pair.referenced]});
  }
  return named;
}

/// \brief An n-ary IND: positionally paired attribute lists. All dependent
/// attributes come from one table, all referenced attributes from one
/// table; `dependent` is kept in ascending attribute order (canonical
/// form), `referenced` is aligned positionally.
struct NaryInd {
  std::vector<AttributeRef> dependent;
  std::vector<AttributeRef> referenced;

  int arity() const { return static_cast<int>(dependent.size()); }
  std::string ToString() const;

  friend bool operator==(const NaryInd& a, const NaryInd& b) {
    return a.dependent == b.dependent && a.referenced == b.referenced;
  }
  friend bool operator<(const NaryInd& a, const NaryInd& b) {
    if (a.dependent != b.dependent) return a.dependent < b.dependent;
    return a.referenced < b.referenced;
  }
};

}  // namespace spider
