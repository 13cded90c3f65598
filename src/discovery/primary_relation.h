// Primary-relation identification (paper Sec. 5, Heuristic 2).
//
// Life-science databases hold one major class of objects; its relation (the
// "primary relation") is the one whose attributes are referenced by the
// most satisfied INDs, among relations that contain an accession-number
// candidate.

#pragma once

#include <string>
#include <vector>

#include "src/discovery/accession.h"
#include "src/ind/candidate.h"

namespace spider {

/// One ranked primary-relation candidate.
struct PrimaryRelationCandidate {
  std::string table;
  /// Satisfied INDs whose referenced attribute lies in this table.
  int64_t inbound_ind_count = 0;
  /// Accession-number candidates found in this table.
  std::vector<AccessionCandidate> accession_candidates;
};

/// \brief Ranks the tables holding `accessions` (what
/// AccessionNumberDetector::Detect found) by the satisfied INDs that
/// reference them: descending inbound IND count, ties broken by table name
/// for determinism. Tables without an accession-number candidate are not
/// ranked; the first entry is the heuristic's primary-relation guess.
std::vector<PrimaryRelationCandidate> RankPrimaryRelations(
    const std::vector<AccessionCandidate>& accessions,
    const std::vector<Ind>& satisfied_inds);

}  // namespace spider
