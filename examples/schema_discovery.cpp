// Schema discovery on an undocumented life-science database (the paper's
// Aladin scenario, Sec. 1.1 and 5).
//
// Generates the BioSQL-like UniProt stand-in, pretends its constraints are
// unknown, discovers INDs, and runs the paper's heuristics: foreign-key
// guessing (evaluated against the declared gold standard), accession-number
// detection, and primary-relation identification.
//
//   ./schema_discovery [bioentries]

#include <cstdlib>
#include <iostream>

#include "src/datagen/uniprot_like.h"
#include "src/discovery/accession.h"
#include "src/discovery/foreign_key.h"
#include "src/discovery/primary_relation.h"
#include "src/ind/session.h"

int main(int argc, char** argv) {
  using namespace spider;

  datagen::UniprotLikeOptions data_options;
  if (argc > 1) data_options.bioentries = std::atoll(argv[1]);

  auto catalog = datagen::MakeUniprotLike(data_options);
  if (!catalog.ok()) {
    std::cerr << catalog.status().ToString() << "\n";
    return 1;
  }
  std::cout << "database: " << (*catalog)->name() << " — "
            << (*catalog)->table_count() << " tables, "
            << (*catalog)->attribute_count() << " attributes\n\n";

  // Aladin step 3: discover intra-source INDs.
  SpiderSession session(**catalog);
  RunOptions options;
  options.approach = "single-pass";
  options.generator.max_value_pretest = true;
  auto report = session.Run(options);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  std::cout << "IND discovery (" << report->approach << "):\n"
            << report->ToString() << "\n";

  // Evaluate against the schema's declared foreign keys (gold standard).
  FkEvaluation eval = EvaluateForeignKeys(**catalog, report->run.satisfied);
  std::cout << "foreign-key evaluation vs. gold standard:\n"
            << "  true positives: " << eval.true_positives.size() << "\n"
            << "  transitive-closure INDs: " << eval.transitive.size() << "\n"
            << "  false positives: " << eval.false_positives.size() << "\n"
            << "  missed (detectable): " << eval.missed.size() << "\n"
            << "  undetectable (empty referencing table): "
            << eval.undetectable.size() << "\n"
            << "  detectable recall: " << eval.DetectableRecall() << "\n\n";

  // Aladin step 2/3 heuristics: accession numbers and the primary relation.
  AccessionNumberDetector detector;
  auto accessions = detector.Detect(**catalog);
  if (!accessions.ok()) {
    std::cerr << accessions.status().ToString() << "\n";
    return 1;
  }
  std::cout << "accession-number candidates (Heuristic 1):\n";
  for (const AccessionCandidate& acc : *accessions) {
    std::cout << "  " << acc.attribute.ToString() << "  (lengths "
              << acc.min_length << ".." << acc.max_length << ")\n";
  }

  const std::vector<PrimaryRelationCandidate> ranked =
      RankPrimaryRelations(*accessions, report->run.satisfied);
  std::cout << "\nprimary-relation ranking (Heuristic 2):\n";
  for (const PrimaryRelationCandidate& candidate : ranked) {
    std::cout << "  " << candidate.table << "  ("
              << candidate.inbound_ind_count << " inbound INDs)\n";
  }
  if (!ranked.empty()) {
    std::cout << "\n=> primary relation: " << ranked[0].table << "\n";
  }
  return 0;
}
