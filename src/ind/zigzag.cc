#include "src/ind/zigzag.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/ind/registry.h"
#include "src/ind/run_batch.h"

namespace spider {

ZigzagAlgorithm::ZigzagAlgorithm(const AlgorithmConfig& config, double epsilon)
    : config_(config),
      epsilon_(epsilon),
      verifier_(config.extractor, config.block_skip) {
  if (config_.max_nary_arity < 2) config_.max_nary_arity = 8;
  SPIDER_CHECK_GE(epsilon_, 0.0);
  SPIDER_CHECK_LE(epsilon_, 1.0);
}

Result<NaryRunResult> ZigzagAlgorithm::Run(const Catalog& catalog,
                                           const std::vector<Ind>& unary,
                                           RunContext& context) {
  const std::vector<UnaryPairs> pairs = GroupByTablePair(unary);
  auto run_pair = [&](size_t pair_index) -> Result<NaryRunResult> {
    const UnaryPairs& base = pairs[pair_index];
    NaryRunResult outcome;

    // Optimistic candidates: greedy maximal bipartite matchings of the
    // unary base. Each unary IND seeds one matching so different pairings
    // get a chance (a simplification of the exact optimistic border).
    std::set<NaryInd> optimistic;
    for (size_t seed = 0; seed < base.size(); ++seed) {
      UnaryPairs matching;
      std::set<AttributeRef> used_dep;
      std::set<AttributeRef> used_ref;
      auto take = [&](const std::pair<AttributeRef, AttributeRef>& edge) {
        if (used_dep.contains(edge.first) || used_ref.contains(edge.second)) {
          return;
        }
        matching.push_back(edge);
        used_dep.insert(edge.first);
        used_ref.insert(edge.second);
      };
      take(base[seed]);
      for (const auto& edge : base) take(edge);
      if (static_cast<int>(matching.size()) < 2) continue;
      while (static_cast<int>(matching.size()) > config_.max_nary_arity) {
        matching.pop_back();
      }
      optimistic.insert(CanonicalNaryInd(std::move(matching)));
    }

    // Zigzag over this pair: test optimistic candidates; refine top-down
    // when the error is small; record maximal satisfied INDs.
    std::set<NaryInd> tested;
    std::vector<NaryInd> satisfied_here;
    std::deque<NaryInd> queue(optimistic.begin(), optimistic.end());
    while (!queue.empty()) {
      NaryInd candidate = std::move(queue.front());
      queue.pop_front();
      if (candidate.arity() < 2) continue;
      if (!tested.insert(candidate).second) continue;
      if (context.ShouldStop()) {
        outcome.finished = false;
        break;
      }
      if (IsImplied(candidate, satisfied_here)) continue;

      ++outcome.tests;
      SPIDER_ASSIGN_OR_RETURN(
          const double error,
          verifier_.Error(catalog, candidate, &outcome.counters));
      context.Step();
      if (error == 0.0) {
        satisfied_here.push_back(std::move(candidate));
        continue;
      }
      if (error <= epsilon_) {
        // Nearly satisfied: its children are promising.
        for (NaryInd& child : Children(candidate)) {
          queue.push_back(std::move(child));
        }
      }
      // Badly violated candidates are abandoned (their sub-INDs are only
      // reached through other, nearly-satisfied branches).
    }

    outcome.satisfied = MaximalInds(satisfied_here);
    return outcome;
  };
  SPIDER_ASSIGN_OR_RETURN(
      NaryRunResult result,
      RunBatch<NaryInd>(config_.pool, pairs.size(), context, run_pair));
  std::sort(result.satisfied.begin(), result.satisfied.end());
  return result;
}

void RegisterZigzagAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.summary =
      "optimistic/top-down (zigzag) maximal n-ary INDs with g3' error "
      "refinement over streamed composite sets";
  Status status = registry.Register(
      "zigzag", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<ZigzagAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
