#include "src/discovery/report.h"

#include "src/common/string_util.h"
#include "src/storage/column_stats.h"

namespace spider {

Result<SchemaReport> BuildSchemaReport(SpiderSession& session,
                                       const SchemaReportOptions& options) {
  const Catalog& catalog = session.catalog();
  SchemaReport report;

  // Aladin step 3: IND discovery.
  RunOptions ind = options.ind;
  ind.kind = DependencyKind::kInd;
  SPIDER_ASSIGN_OR_RETURN(report.profile, session.Run(ind));
  const CandidateGraph& graph = report.profile.candidates;

  // Aladin step 2: primary-key candidates (unique, non-empty columns),
  // from the statistics the IND run measured. Its attribute table is in
  // catalog enumeration order, the order walked here.
  size_t id = 0;
  for (int t = 0; t < catalog.table_count(); ++t) {
    const Table& table = catalog.table(t);
    for (int c = 0; c < table.column_count(); ++c, ++id) {
      const Column& column = table.column(c);
      if (!column.has_data() || !IsIndEligibleType(column.type())) continue;
      const ColumnStats& stats = graph.stats[id];
      if (stats.verified_unique || column.declared_unique()) {
        report.key_candidates.push_back(
            KeyCandidate{graph.attributes[id], stats.distinct_count});
      }
    }
  }

  // Composite keys (minimal UCCs of arity >= 2) from the same session,
  // after the IND run: its profile counters stay the IND run's own, and
  // the UCC search reuses the unary sets that run already extracted.
  if (options.max_key_arity >= 2) {
    RunOptions keys;
    keys.approach = "ucc-levelwise";
    keys.nary_max_arity = options.max_key_arity;
    keys.threads = options.ind.threads;
    SPIDER_ASSIGN_OR_RETURN(SessionReport uccs, session.Run(keys));
    for (Ucc& candidate : uccs.dependency.uccs) {
      if (candidate.arity() >= 2) {
        report.composite_keys.push_back(std::move(candidate));
      }
    }
  }

  // Optional surrogate filtering before the downstream heuristics.
  std::vector<Ind> working_inds = report.profile.run.satisfied;
  if (options.filter_surrogates) {
    SurrogateKeyFilter filter(options.surrogate);
    SPIDER_ASSIGN_OR_RETURN(FilteredInds split,
                            filter.Filter(catalog, working_inds));
    report.surrogate_filtered = std::move(split.filtered);
    working_inds = std::move(split.kept);
  }

  report.fk_guesses = GuessForeignKeys(graph, working_inds);
  report.fk_evaluation =
      EvaluateForeignKeys(catalog, report.profile.run.satisfied);

  AccessionNumberDetector detector(options.accession);
  SPIDER_ASSIGN_OR_RETURN(report.accession_candidates,
                          detector.Detect(catalog));
  report.primary_relations =
      RankPrimaryRelations(report.accession_candidates, working_inds);
  return report;
}

std::string SchemaReport::ToString() const {
  std::string out;
  out += "== schema discovery report ==\n\n";

  out += "primary-key candidates (" +
         FormatWithCommas(static_cast<int64_t>(key_candidates.size())) +
         "):\n";
  for (const KeyCandidate& key : key_candidates) {
    out += "  " + key.attribute.ToString() + " (" +
           FormatWithCommas(key.distinct_count) + " distinct)\n";
  }

  if (!composite_keys.empty()) {
    out += "\ncomposite key candidates:\n";
    for (const Ucc& ucc : composite_keys) {
      out += "  " + ucc.ToString() + "\n";
    }
  }

  out += "\nIND discovery:\n" + profile.ToString();

  if (!surrogate_filtered.empty()) {
    out += "\nsurrogate-to-surrogate INDs filtered: " +
           FormatWithCommas(static_cast<int64_t>(surrogate_filtered.size())) +
           "\n";
  }

  out += "\nforeign-key guesses (" +
         FormatWithCommas(static_cast<int64_t>(fk_guesses.size())) + "):\n";
  for (const ForeignKey& fk : fk_guesses) {
    out += "  " + fk.ToString() + "\n";
  }

  const bool has_gold = !fk_evaluation.true_positives.empty() ||
                        !fk_evaluation.missed.empty() ||
                        !fk_evaluation.undetectable.empty();
  if (has_gold) {
    out += "\ngold-standard evaluation:\n";
    out += "  true positives:  " +
           FormatWithCommas(
               static_cast<int64_t>(fk_evaluation.true_positives.size())) +
           "\n";
    out += "  transitive:      " +
           FormatWithCommas(static_cast<int64_t>(fk_evaluation.transitive.size())) +
           "\n";
    out += "  false positives: " +
           FormatWithCommas(
               static_cast<int64_t>(fk_evaluation.false_positives.size())) +
           "\n";
    out += "  missed:          " +
           FormatWithCommas(static_cast<int64_t>(fk_evaluation.missed.size())) +
           "\n";
    out += "  undetectable:    " +
           FormatWithCommas(
               static_cast<int64_t>(fk_evaluation.undetectable.size())) +
           "\n";
  }

  out += "\naccession-number candidates:\n";
  for (const AccessionCandidate& acc : accession_candidates) {
    out += "  " + acc.attribute.ToString() + "\n";
  }

  out += "\nprimary-relation ranking:\n";
  for (const PrimaryRelationCandidate& candidate : primary_relations) {
    out += "  " + candidate.table + " (" +
           FormatWithCommas(candidate.inbound_ind_count) + " inbound INDs)\n";
  }
  if (!primary_relations.empty()) {
    out += "\n=> primary relation: " + primary_relations.front().table + "\n";
  }
  return out;
}

}  // namespace spider
