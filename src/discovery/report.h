// End-to-end schema-discovery report: the Aladin pipeline of the paper
// (Sec. 1.1) packaged as one call — key candidates, INDs, foreign-key
// guesses, accession numbers, primary relation, surrogate filtering.

#pragma once

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/discovery/accession.h"
#include "src/discovery/foreign_key.h"
#include "src/discovery/primary_relation.h"
#include "src/discovery/surrogate_filter.h"
#include "src/ind/dependency.h"
#include "src/ind/session.h"

namespace spider {

/// Options for BuildSchemaReport.
struct SchemaReportOptions {
  /// IND discovery controls: approach (by registry name), pretests,
  /// budgets, progress. `kind` is pinned to IND, so an approach of another
  /// kind fails the run.
  RunOptions ind;
  AccessionDetectorOptions accession;
  SurrogateFilterOptions surrogate;
  /// Apply the surrogate filter before guessing foreign keys and ranking
  /// primary relations.
  bool filter_surrogates = true;
  /// Also search for composite (multi-column) key candidates up to this
  /// arity; 1 disables the lattice search (single columns are always
  /// reported).
  int max_key_arity = 2;
};

/// A primary-key candidate (Aladin step 2: verified-unique, non-empty).
struct KeyCandidate {
  AttributeRef attribute;
  int64_t distinct_count = 0;
};

/// Everything schema discovery derives from one database instance.
struct SchemaReport {
  /// Aladin step 2: single-column primary-key candidates.
  std::vector<KeyCandidate> key_candidates;
  /// Composite key candidates (minimal unique column combinations of
  /// arity >= 2).
  std::vector<Ucc> composite_keys;
  /// Aladin step 3: the IND profile (candidates, satisfied INDs, timings).
  SessionReport profile;
  /// INDs removed as surrogate-to-surrogate coincidences.
  std::vector<Ind> surrogate_filtered;
  /// Foreign-key guesses from the (filtered) INDs.
  std::vector<ForeignKey> fk_guesses;
  /// Gold-standard evaluation; only meaningful when the catalog declares
  /// foreign keys.
  FkEvaluation fk_evaluation;
  /// Heuristic 1 candidates.
  std::vector<AccessionCandidate> accession_candidates;
  /// Heuristic 2 ranking; front() is the primary-relation guess.
  std::vector<PrimaryRelationCandidate> primary_relations;

  /// Renders the full report as human-readable text.
  std::string ToString() const;
};

/// Runs the whole pipeline over the session's catalog, on the session: a
/// session persisting a workspace profile reuses and records its sorted
/// sets and verdicts, as any other run on it does. The IND run goes first;
/// the key candidates, foreign-key guesses and primary-relation ranking
/// read what it and the accession detector computed, so each column is
/// measured and scanned for accession numbers once.
Result<SchemaReport> BuildSchemaReport(SpiderSession& session,
                                       const SchemaReportOptions& options = {});

}  // namespace spider
