#include "src/discovery/primary_relation.h"

#include <algorithm>
#include <map>

namespace spider {

std::vector<PrimaryRelationCandidate> RankPrimaryRelations(
    const std::vector<AccessionCandidate>& accessions,
    const std::vector<Ind>& satisfied_inds) {
  std::map<std::string, PrimaryRelationCandidate> by_table;
  for (const AccessionCandidate& acc : accessions) {
    PrimaryRelationCandidate& entry = by_table[acc.attribute.table];
    entry.table = acc.attribute.table;
    entry.accession_candidates.push_back(acc);
  }
  if (by_table.empty()) return {};

  for (const Ind& ind : satisfied_inds) {
    auto it = by_table.find(ind.referenced.table);
    if (it != by_table.end()) ++it->second.inbound_ind_count;
  }

  std::vector<PrimaryRelationCandidate> ranked;
  ranked.reserve(by_table.size());
  for (auto& [_, entry] : by_table) ranked.push_back(std::move(entry));
  std::sort(ranked.begin(), ranked.end(),
            [](const PrimaryRelationCandidate& a,
               const PrimaryRelationCandidate& b) {
              if (a.inbound_ind_count != b.inbound_ind_count) {
                return a.inbound_ind_count > b.inbound_ind_count;
              }
              return a.table < b.table;
            });
  return ranked;
}

}  // namespace spider
