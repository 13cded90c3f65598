#include "src/ind/nary.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/nary_algorithm.h"
#include "src/ind/registry.h"

namespace spider {

std::vector<NaryInd> NaryDiscoveryResult::AllNary() const {
  std::vector<NaryInd> out;
  for (size_t level = 1; level < by_level.size(); ++level) {
    out.insert(out.end(), by_level[level].begin(), by_level[level].end());
  }
  return out;
}

NaryIndDiscovery::NaryIndDiscovery(NaryDiscoveryOptions options)
    : options_(options), verifier_(options.extractor, options.block_skip) {
  SPIDER_CHECK_GE(options_.max_arity, 2);
  SPIDER_CHECK_GE(options_.error_threshold, 0);
  SPIDER_CHECK_LT(options_.error_threshold, 1.0);
}

Result<bool> NaryIndDiscovery::Verify(const Catalog& catalog,
                                      const NaryInd& candidate,
                                      RunCounters* counters) const {
  if (options_.error_threshold > 0) {
    SPIDER_ASSIGN_OR_RETURN(const double error,
                            verifier_.Error(catalog, candidate, counters));
    return error <= options_.error_threshold;
  }
  return verifier_.VerifyIncluded(catalog, candidate, counters,
                                  options_.early_stop);
}

namespace {

// Canonical (k-1)-subprojections of a candidate, for the Apriori check.
std::vector<NaryInd> Subprojections(const NaryInd& candidate) {
  std::vector<NaryInd> out;
  const int arity = candidate.arity();
  for (int skip = 0; skip < arity; ++skip) {
    NaryInd sub;
    for (int i = 0; i < arity; ++i) {
      if (i == skip) continue;
      sub.dependent.push_back(candidate.dependent[static_cast<size_t>(i)]);
      sub.referenced.push_back(candidate.referenced[static_cast<size_t>(i)]);
    }
    out.push_back(std::move(sub));
  }
  return out;
}

// Per-candidate verification outcome for the level batch.
struct VerifyOutcome {
  bool tested = false;
  bool satisfied = false;
  RunCounters counters;
};

}  // namespace

Result<NaryDiscoveryResult> NaryIndDiscovery::Run(
    const Catalog& catalog, const std::vector<Ind>& unary) const {
  RunContext context;
  return Run(catalog, unary, context);
}

Result<NaryDiscoveryResult> NaryIndDiscovery::Run(
    const Catalog& catalog, const std::vector<Ind>& unary,
    RunContext& context) const {
  NaryDiscoveryResult result;
  context.Begin(/*total_work=*/0);  // candidate count is not known up front

  // Level 1: echo the unary INDs in NaryInd form (deduplicated, sorted).
  std::set<NaryInd> level;
  for (const Ind& ind : unary) {
    level.insert(NaryInd{{ind.dependent}, {ind.referenced}});
  }
  result.by_level.emplace_back(level.begin(), level.end());

  for (int arity = 2; arity <= options_.max_arity; ++arity) {
    const std::vector<NaryInd>& previous = result.by_level.back();
    if (previous.empty()) break;
    std::set<NaryInd> previous_set(previous.begin(), previous.end());

    // Apriori join: combine INDs sharing tables and the first k-2 pairs,
    // with the last dependent attribute strictly increasing and no
    // attribute repeated on either side.
    std::set<NaryInd> candidates;
    for (size_t a = 0; a < previous.size(); ++a) {
      for (size_t b = 0; b < previous.size(); ++b) {
        const NaryInd& left = previous[a];
        const NaryInd& right = previous[b];
        if (left.dependent[0].table != right.dependent[0].table ||
            left.referenced[0].table != right.referenced[0].table) {
          continue;
        }
        bool prefix_equal = true;
        for (int i = 0; i + 1 < arity - 1; ++i) {
          if (!(left.dependent[static_cast<size_t>(i)] ==
                right.dependent[static_cast<size_t>(i)]) ||
              !(left.referenced[static_cast<size_t>(i)] ==
                right.referenced[static_cast<size_t>(i)])) {
            prefix_equal = false;
            break;
          }
        }
        if (!prefix_equal) continue;
        const AttributeRef& left_dep = left.dependent.back();
        const AttributeRef& right_dep = right.dependent.back();
        if (!(left_dep < right_dep)) continue;

        NaryInd candidate = left;
        candidate.dependent.push_back(right_dep);
        candidate.referenced.push_back(right.referenced.back());

        // No repeated attribute on either side.
        std::set<AttributeRef> dep_set(candidate.dependent.begin(),
                                       candidate.dependent.end());
        std::set<AttributeRef> ref_set(candidate.referenced.begin(),
                                       candidate.referenced.end());
        if (static_cast<int>(dep_set.size()) != arity ||
            static_cast<int>(ref_set.size()) != arity) {
          continue;
        }
        // Downward closure: every subprojection must be satisfied.
        bool closed = true;
        for (const NaryInd& sub : Subprojections(candidate)) {
          if (!previous_set.contains(sub)) {
            closed = false;
            break;
          }
        }
        if (closed) candidates.insert(std::move(candidate));
      }
    }

    result.candidates_per_level.push_back(
        static_cast<int64_t>(candidates.size()));

    // Verify the level's batch — concurrently when a pool is configured.
    // Outcomes are folded in candidate order, so the satisfied set and the
    // merged counters are identical at any thread count.
    const std::vector<NaryInd> batch(candidates.begin(), candidates.end());
    std::vector<Result<VerifyOutcome>> outcomes =
        RunNaryBatch<VerifyOutcome>(options_.pool, batch.size(),
                                    [&](size_t i) -> Result<VerifyOutcome> {
                                      VerifyOutcome outcome;
                                      if (context.ShouldStop()) return outcome;
                                      outcome.tested = true;
                                      // Exact containment, or g3' error up
                                      // to the partial threshold.
                                      SPIDER_ASSIGN_OR_RETURN(
                                          outcome.satisfied,
                                          Verify(catalog, batch[i],
                                                 &outcome.counters));
                                      context.Step();
                                      return outcome;
                                    });
    std::vector<NaryInd> satisfied;
    std::vector<int64_t> level_peaks;
    level_peaks.reserve(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      SPIDER_RETURN_NOT_OK(outcomes[i].status());
      const VerifyOutcome& outcome = *outcomes[i];
      if (!outcome.tested) {
        result.finished = false;
        continue;
      }
      ++result.counters.candidates_tested;
      result.counters.Merge(outcome.counters);
      level_peaks.push_back(outcome.counters.peak_open_files);
      if (outcome.satisfied) satisfied.push_back(batch[i]);
    }
    ApplyConcurrentPeakBound(options_.pool, std::move(level_peaks),
                             result.counters);
    result.by_level.push_back(std::move(satisfied));
    if (!result.finished) break;
  }
  return result;
}

namespace {

/// Adapts NaryIndDiscovery to the registered NaryAlgorithm interface.
class LevelwiseNaryAlgorithm final : public NaryAlgorithm {
 public:
  explicit LevelwiseNaryAlgorithm(NaryDiscoveryOptions options)
      : discovery_(options) {}

  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override {
    Stopwatch watch;
    watch.Start();
    SPIDER_ASSIGN_OR_RETURN(NaryDiscoveryResult result,
                            discovery_.Run(catalog, unary, context));
    NaryRunResult out;
    out.satisfied = result.AllNary();
    std::sort(out.satisfied.begin(), out.satisfied.end());
    out.tests = result.counters.candidates_tested;
    out.counters = result.counters;
    out.finished = result.finished;
    out.seconds = watch.ElapsedSeconds();
    return out;
  }

  std::string_view name() const override { return "nary"; }

 private:
  NaryIndDiscovery discovery_;
};

}  // namespace

void RegisterNaryAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;
  // Partial here means the g3' error threshold (AlgorithmConfig::
  // error_threshold), not σ-coverage — the session still rejects a
  // σ-partial unary base under any expansion.
  capabilities.supports_partial = true;
  capabilities.summary =
      "levelwise (MIND-style) n-ary expansion: Apriori-join level k-1, "
      "verify by sorted composite-set merges (exact or g3'-partial)";
  Status status = registry.Register(
      "nary", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<NaryAlgorithm>> {
        NaryDiscoveryOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        options.block_skip = config.block_skip;
        options.error_threshold = config.error_threshold;
        if (config.max_nary_arity >= 2) {
          options.max_arity = config.max_nary_arity;
        }
        return std::unique_ptr<NaryAlgorithm>(
            new LevelwiseNaryAlgorithm(options));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
