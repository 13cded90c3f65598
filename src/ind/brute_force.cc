#include "src/ind/brute_force.h"

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/registry.h"

namespace spider {

BruteForceAlgorithm::BruteForceAlgorithm(const AlgorithmConfig& config,
                                         BruteForceOptions options)
    : config_(config), options_(options) {
  SPIDER_CHECK(config_.extractor != nullptr)
      << "brute-force requires a value-set extractor";
}

Result<bool> TestCandidateBruteForce(const SortedSetInfo& dep,
                                     const SortedSetInfo& ref,
                                     RunCounters* counters, bool early_stop) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> dep_reader,
                          SortedSetReader::Open(dep.path, counters));
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> ref_reader,
                          SortedSetReader::Open(ref.path, counters));
  if (counters != nullptr && counters->peak_open_files < 2) {
    counters->peak_open_files = 2;
  }

  // Algorithm 1: iterate both sorted sets from the smallest item. For each
  // dependent item, advance through referenced items that are <= it; refute
  // when a referenced item greater than the dependent item appears first or
  // the referenced stream ends early.
  bool satisfied = true;
  while (dep_reader->HasNext()) {
    const std::string current_dep = dep_reader->Next();
    if (!ref_reader->HasNext()) {
      satisfied = false;
      if (early_stop) break;
      continue;
    }
    bool matched = false;
    while (ref_reader->HasNext()) {
      const std::string current_ref = ref_reader->Next();
      if (counters != nullptr) ++counters->comparisons;
      if (current_dep == current_ref) {
        matched = true;
        break;
      }
      if (current_dep < current_ref) {
        break;  // current_dep cannot appear later in the sorted ref stream
      }
    }
    if (!matched) {
      satisfied = false;
      if (early_stop) break;
    }
  }
  SPIDER_RETURN_NOT_OK(dep_reader->status());
  SPIDER_RETURN_NOT_OK(ref_reader->status());
  return satisfied;
}

Result<IdRunResult> BruteForceAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  IdRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  for (const AttributePair& candidate : candidates) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    const AttributeRef& dependent = attributes[candidate.dependent];
    const AttributeRef& referenced = attributes[candidate.referenced];
    if (options_.transitivity != nullptr) {
      std::optional<bool> known =
          options_.transitivity->Known(dependent, referenced);
      if (known.has_value()) {
        ++result.counters.candidates_pretest_pruned;
        if (*known) result.satisfied.push_back(candidate);
        context.Step();
        continue;
      }
    }

    SPIDER_ASSIGN_OR_RETURN(SortedSetInfo dep_info,
                            config_.extractor->Extract(catalog, dependent));
    SPIDER_ASSIGN_OR_RETURN(SortedSetInfo ref_info,
                            config_.extractor->Extract(catalog, referenced));

    ++result.counters.candidates_tested;
    SPIDER_ASSIGN_OR_RETURN(
        bool satisfied,
        TestCandidateBruteForce(dep_info, ref_info, &result.counters,
                                options_.early_stop));
    if (satisfied) {
      result.satisfied.push_back(candidate);
      if (options_.transitivity != nullptr) {
        options_.transitivity->AddSatisfied(dependent, referenced);
      }
    } else if (options_.transitivity != nullptr) {
      options_.transitivity->AddRefuted(dependent, referenced);
    }
    context.Step();
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterBruteForceAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.summary =
      "one merge scan per candidate over sorted value sets (Sec. 3.1)";
  Status status = registry.Register(
      "brute-force", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<BruteForceAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
