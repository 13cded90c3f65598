// Reproduces paper Sec. 5: schema discovery using the found INDs —
// foreign-key quality on the BioSQL-like gold standard, accession-number
// candidate counts (strict vs. softened), and primary-relation
// identification for both databases.
//
// Paper findings to verify (shape):
//   * UniProt: all detectable FKs found, extra transitive-closure INDs,
//     zero false positives, two undetectable FKs on an empty table;
//     3 accession candidates; primary relation = sg_bioentry (unambiguous);
//   * PDB: thousands of spurious INDs between surrogate keys; more
//     accession candidates under the softened rule; pdb_struct tops the
//     primary-relation ranking; the surrogate filter removes the bulk of
//     the false positives.

#include "bench/bench_util.h"
#include "src/discovery/accession.h"
#include "src/discovery/foreign_key.h"
#include "src/discovery/primary_relation.h"
#include "src/discovery/surrogate_filter.h"

namespace spider::bench {
namespace {

void BM_UniprotFkQuality(benchmark::State& state) {
  Dataset& dataset = UniprotDataset();
  for (auto _ : state) {
    IndRunResult result = RunApproach(dataset, "brute-force");
    FkEvaluation eval =
        EvaluateForeignKeys(*dataset.catalog, result.satisfied);
    state.counters["true_positives"] =
        static_cast<double>(eval.true_positives.size());
    state.counters["transitive"] = static_cast<double>(eval.transitive.size());
    state.counters["false_positives"] =
        static_cast<double>(eval.false_positives.size());
    state.counters["missed"] = static_cast<double>(eval.missed.size());
    state.counters["undetectable"] =
        static_cast<double>(eval.undetectable.size());
    state.counters["recall"] = eval.DetectableRecall();
  }
}
BENCHMARK(BM_UniprotFkQuality)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AccessionCandidates(benchmark::State& state, Dataset& (*dataset_fn)(),
                            double min_conforming_fraction) {
  Dataset& dataset = dataset_fn();
  for (auto _ : state) {
    AccessionDetectorOptions options;
    options.min_conforming_fraction = min_conforming_fraction;
    AccessionNumberDetector detector(options);
    auto candidates = detector.Detect(*dataset.catalog);
    SPIDER_CHECK(candidates.ok());
    state.counters["accession_candidates"] =
        static_cast<double>(candidates->size());
  }
}
BENCHMARK_CAPTURE(BM_AccessionCandidates, uniprot_strict, &UniprotDataset, 1.0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_AccessionCandidates, pdb_strict, &PdbReducedDataset, 1.0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_AccessionCandidates, pdb_softened, &PdbReducedDataset,
                  0.97)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_PrimaryRelation(benchmark::State& state, Dataset& (*dataset_fn)(),
                        bool surrogate_filter) {
  Dataset& dataset = dataset_fn();
  IndRunResult result = RunApproach(dataset, "brute-force");
  for (auto _ : state) {
    std::vector<Ind> inds = result.satisfied;
    if (surrogate_filter) {
      auto split = SurrogateKeyFilter().Filter(*dataset.catalog, inds);
      SPIDER_CHECK(split.ok());
      state.counters["filtered_inds"] =
          static_cast<double>(split->filtered.size());
      inds = split->kept;
    }
    auto accessions = AccessionNumberDetector().Detect(*dataset.catalog);
    SPIDER_CHECK(accessions.ok());
    const std::vector<PrimaryRelationCandidate> ranked =
        RankPrimaryRelations(*accessions, inds);
    state.counters["relation_candidates"] = static_cast<double>(ranked.size());
    if (!ranked.empty()) {
      state.SetLabel("primary=" + ranked[0].table);
      state.counters["top_inbound"] =
          static_cast<double>(ranked[0].inbound_ind_count);
    }
  }
}
BENCHMARK_CAPTURE(BM_PrimaryRelation, uniprot, &UniprotDataset, false)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_PrimaryRelation, pdb_raw, &PdbReducedDataset, false)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_PrimaryRelation, pdb_filtered, &PdbReducedDataset, true)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  std::cout << "=== Paper Sec. 5: schema discovery using INDs ===\n"
               "Expected shape: UniProt FK recall 1.0 with 0 false positives "
               "and 2 undetectable FKs;\nprimary relation sg_bioentry / "
               "pdb_struct; softened accession rule finds more candidates;\n"
               "the surrogate filter removes most PDB false positives.\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
