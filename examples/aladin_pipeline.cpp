// The full Aladin pipeline (paper Sec. 1.1, Figure 1) over two generated
// life-science databases:
//
//   step 1  import            — generate the two databases (stand-in for
//                               download + parse);
//   step 2  key candidates    — verified-unique columns;
//   step 3  intra-source INDs — discovery + FK guessing + primary relation;
//   step 4  inter-source links — INDs into the other database's accession
//                               attributes;
//   step 5  duplicates        — shared accession populations flagged.
//
// The two databases are mirrors at different sizes (same accession space),
// as UniProt/Swiss-Prot mirrors are, so steps 4 and 5 have real work to do.

#include <iostream>

#include "src/datagen/uniprot_like.h"
#include "src/discovery/duplicates.h"
#include "src/discovery/link_discovery.h"
#include "src/discovery/report.h"

int main() {
  using namespace spider;

  // ---- step 1: import -------------------------------------------------
  datagen::UniprotLikeOptions primary_options;
  primary_options.bioentries = 250;
  auto primary = datagen::MakeUniprotLike(primary_options);
  datagen::UniprotLikeOptions mirror_options;
  mirror_options.bioentries = 120;  // a smaller mirror: shared accessions
  auto mirror = datagen::MakeUniprotLike(mirror_options);
  if (!primary.ok() || !mirror.ok()) {
    std::cerr << "generation failed\n";
    return 1;
  }
  std::cout << "step 1: imported '" << (*primary)->name() << "' ("
            << (*primary)->attribute_count() << " attrs) and a mirror ("
            << (*mirror)->attribute_count() << " attrs)\n\n";

  // ---- steps 2 + 3: keys, INDs, foreign keys, primary relation ---------
  SchemaReportOptions report_options;
  report_options.ind.approach = "spider-merge";
  report_options.ind.generator.max_value_pretest = true;
  SpiderSession session(**primary);
  auto report = BuildSchemaReport(session, report_options);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  std::cout << "steps 2+3 (keys, INDs, FKs, primary relation):\n"
            << report->ToString() << "\n";

  // ---- step 4: inter-source links --------------------------------------
  LinkDiscoveryOptions link_options;
  link_options.min_coverage = 0.3;  // the mirror covers part of the primary
  auto links = LinkDiscovery(link_options).FindLinks(**mirror, **primary);
  if (!links.ok()) {
    std::cerr << links.status().ToString() << "\n";
    return 1;
  }
  std::cout << "step 4: links from the mirror into the primary database:\n";
  for (const DatabaseLink& link : *links) {
    std::cout << "  " << link.source.ToString() << " -> "
              << link.target.ToString() << "  (coverage " << link.coverage
              << ")\n";
  }

  // ---- step 5: duplicates ----------------------------------------------
  DuplicateDetector duplicates;
  auto dup_reports = duplicates.Detect(**primary, **mirror);
  if (!dup_reports.ok()) {
    std::cerr << dup_reports.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\nstep 5: duplicate object populations:\n";
  for (const DuplicateReport& dup : *dup_reports) {
    std::cout << "  " << dup.left.ToString() << " ~ " << dup.right.ToString()
              << "  (" << dup.shared_count << " shared";
    if (!dup.samples.empty()) {
      std::cout << ", e.g. " << dup.samples.front();
    }
    std::cout << ")\n";
  }
  return 0;
}
