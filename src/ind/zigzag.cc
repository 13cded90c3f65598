#include "src/ind/zigzag.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/nary_algorithm.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

// One (dependent table, referenced table) pairing context.
struct TablePair {
  std::string dep_table;
  std::string ref_table;
  // The unary base: satisfied dep-column ⊆ ref-column pairs.
  std::vector<std::pair<AttributeRef, AttributeRef>> unary;

  friend bool operator<(const TablePair& a, const TablePair& b) {
    if (a.dep_table != b.dep_table) return a.dep_table < b.dep_table;
    return a.ref_table < b.ref_table;
  }
};

// Canonicalizes: dependent attributes ascending, referenced aligned.
NaryInd Canonical(std::vector<std::pair<AttributeRef, AttributeRef>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  NaryInd ind;
  for (auto& [dep, ref] : pairs) {
    ind.dependent.push_back(std::move(dep));
    ind.referenced.push_back(std::move(ref));
  }
  return ind;
}

// True when `sub` is a subprojection of `super` (same positional pairs).
bool IsSubprojection(const NaryInd& sub, const NaryInd& super) {
  if (sub.arity() > super.arity()) return false;
  size_t j = 0;
  for (int i = 0; i < sub.arity(); ++i) {
    bool found = false;
    for (; j < super.dependent.size(); ++j) {
      if (super.dependent[j] == sub.dependent[static_cast<size_t>(i)] &&
          super.referenced[j] == sub.referenced[static_cast<size_t>(i)]) {
        found = true;
        ++j;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// All (k-1)-ary children of a candidate.
std::vector<NaryInd> Children(const NaryInd& candidate) {
  std::vector<NaryInd> out;
  for (int skip = 0; skip < candidate.arity(); ++skip) {
    NaryInd child;
    for (int i = 0; i < candidate.arity(); ++i) {
      if (i == skip) continue;
      child.dependent.push_back(candidate.dependent[static_cast<size_t>(i)]);
      child.referenced.push_back(candidate.referenced[static_cast<size_t>(i)]);
    }
    out.push_back(std::move(child));
  }
  return out;
}

}  // namespace

ZigzagDiscovery::ZigzagDiscovery(ZigzagOptions options)
    : options_(options), verifier_(options.extractor, options.block_skip) {
  SPIDER_CHECK_GE(options_.max_arity, 2);
  SPIDER_CHECK_GE(options_.epsilon, 0.0);
  SPIDER_CHECK_LE(options_.epsilon, 1.0);
}

Result<double> ZigzagDiscovery::Error(const Catalog& catalog,
                                      const NaryInd& candidate,
                                      RunCounters* counters) const {
  return verifier_.Error(catalog, candidate, counters);
}

/// Everything one table pair contributes to the run.
struct ZigzagDiscovery::PairOutcome {
  std::vector<NaryInd> maximal;
  int64_t tests = 0;
  int64_t optimistic_hits = 0;
  RunCounters counters;
  bool finished = true;
};

Result<ZigzagResult> ZigzagDiscovery::Run(const Catalog& catalog,
                                          const std::vector<Ind>& unary) const {
  RunContext context;
  return Run(catalog, unary, context);
}

Result<ZigzagResult> ZigzagDiscovery::Run(const Catalog& catalog,
                                          const std::vector<Ind>& unary,
                                          RunContext& context) const {
  ZigzagResult result;
  context.Begin(/*total_work=*/0);

  // Group the unary base by table pair.
  std::map<std::pair<std::string, std::string>, TablePair> pairs;
  for (const Ind& ind : unary) {
    auto key = std::make_pair(ind.dependent.table, ind.referenced.table);
    TablePair& pair = pairs[key];
    pair.dep_table = key.first;
    pair.ref_table = key.second;
    pair.unary.emplace_back(ind.dependent, ind.referenced);
  }

  std::vector<TablePair> work;
  for (auto& [_, pair] : pairs) {
    if (pair.unary.size() >= 2) work.push_back(std::move(pair));
  }

  auto run_pair = [&](size_t pair_index) -> Result<PairOutcome> {
    const TablePair& pair = work[pair_index];
    PairOutcome outcome;

    // Optimistic candidates: greedy maximal bipartite matchings of the
    // unary base. Each unary IND seeds one matching so different pairings
    // get a chance (a simplification of the exact optimistic border).
    std::set<NaryInd> optimistic;
    for (size_t seed = 0; seed < pair.unary.size(); ++seed) {
      std::vector<std::pair<AttributeRef, AttributeRef>> matching;
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
      take(pair.unary[seed]);
      for (const auto& edge : pair.unary) take(edge);
      if (static_cast<int>(matching.size()) < 2) continue;
      while (static_cast<int>(matching.size()) > options_.max_arity) {
        matching.pop_back();
      }
      optimistic.insert(Canonical(std::move(matching)));
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
      // Skip candidates already implied by a satisfied superset.
      bool implied = false;
      for (const NaryInd& winner : satisfied_here) {
        if (IsSubprojection(candidate, winner)) {
          implied = true;
          break;
        }
      }
      if (implied) continue;

      ++outcome.tests;
      SPIDER_ASSIGN_OR_RETURN(
          double error, verifier_.Error(catalog, candidate, &outcome.counters));
      context.Step();
      if (error == 0.0) {
        satisfied_here.push_back(candidate);
        if (candidate.arity() > 2) ++outcome.optimistic_hits;
        continue;
      }
      if (error <= options_.epsilon) {
        // Nearly satisfied: its children are promising.
        for (NaryInd& child : Children(candidate)) {
          queue.push_back(std::move(child));
        }
      }
      // Badly violated candidates are abandoned (their sub-INDs are only
      // reached through other, nearly-satisfied branches).
    }

    // Keep only the maximal satisfied INDs for this pair.
    for (size_t i = 0; i < satisfied_here.size(); ++i) {
      bool maximal = true;
      for (size_t j = 0; j < satisfied_here.size(); ++j) {
        if (i != j && satisfied_here[i].arity() < satisfied_here[j].arity() &&
            IsSubprojection(satisfied_here[i], satisfied_here[j])) {
          maximal = false;
          break;
        }
      }
      if (maximal) outcome.maximal.push_back(satisfied_here[i]);
    }
    return outcome;
  };

  std::vector<Result<PairOutcome>> outcomes =
      RunNaryBatch<PairOutcome>(options_.pool, work.size(), run_pair);
  std::vector<int64_t> pair_peaks;
  pair_peaks.reserve(outcomes.size());
  for (Result<PairOutcome>& pair_result : outcomes) {
    SPIDER_RETURN_NOT_OK(pair_result.status());
    PairOutcome& outcome = *pair_result;
    result.maximal.insert(result.maximal.end(),
                          std::make_move_iterator(outcome.maximal.begin()),
                          std::make_move_iterator(outcome.maximal.end()));
    result.tests += outcome.tests;
    result.optimistic_hits += outcome.optimistic_hits;
    result.counters.Merge(outcome.counters);
    pair_peaks.push_back(outcome.counters.peak_open_files);
    result.finished = result.finished && outcome.finished;
  }
  ApplyConcurrentPeakBound(options_.pool, std::move(pair_peaks),
                           result.counters);

  std::sort(result.maximal.begin(), result.maximal.end());
  return result;
}

namespace {

class ZigzagAlgorithm final : public NaryAlgorithm {
 public:
  explicit ZigzagAlgorithm(ZigzagOptions options) : discovery_(options) {}

  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override {
    Stopwatch watch;
    watch.Start();
    SPIDER_ASSIGN_OR_RETURN(ZigzagResult result,
                            discovery_.Run(catalog, unary, context));
    NaryRunResult out;
    out.satisfied = std::move(result.maximal);
    out.tests = result.tests;
    out.counters = result.counters;
    out.finished = result.finished;
    out.seconds = watch.ElapsedSeconds();
    return out;
  }

  std::string_view name() const override { return "zigzag"; }

 private:
  ZigzagDiscovery discovery_;
};

}  // namespace

void RegisterZigzagAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;
  capabilities.summary =
      "optimistic/top-down (zigzag) maximal n-ary INDs with g3' error "
      "refinement over streamed composite sets";
  Status status = registry.Register(
      "zigzag", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<NaryAlgorithm>> {
        ZigzagOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        options.block_skip = config.block_skip;
        if (config.max_nary_arity >= 2) {
          options.max_arity = config.max_nary_arity;
        }
        return std::unique_ptr<NaryAlgorithm>(new ZigzagAlgorithm(options));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
