#include "src/ind/clique_nary.h"

#include <algorithm>
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

// Bron–Kerbosch with pivoting over vertex-index sets.
void BronKerbosch(const std::vector<std::vector<bool>>& adjacency,
                  std::vector<int>* r, std::set<int>* p, std::set<int>* x,
                  std::vector<std::vector<int>>* out) {
  if (p->empty() && x->empty()) {
    out->push_back(*r);
    return;
  }
  // Pivot: vertex from P ∪ X with the most neighbours in P.
  int pivot = -1;
  size_t best = 0;
  auto count_neighbours = [&](int u) {
    size_t n = 0;
    for (int v : *p) {
      if (adjacency[static_cast<size_t>(u)][static_cast<size_t>(v)]) ++n;
    }
    return n;
  };
  for (int u : *p) {
    size_t n = count_neighbours(u);
    if (pivot == -1 || n > best) {
      pivot = u;
      best = n;
    }
  }
  for (int u : *x) {
    size_t n = count_neighbours(u);
    if (pivot == -1 || n > best) {
      pivot = u;
      best = n;
    }
  }

  std::vector<int> frontier;
  for (int v : *p) {
    if (pivot == -1 ||
        !adjacency[static_cast<size_t>(pivot)][static_cast<size_t>(v)]) {
      frontier.push_back(v);
    }
  }
  for (int v : frontier) {
    std::set<int> p2;
    std::set<int> x2;
    for (int w : *p) {
      if (adjacency[static_cast<size_t>(v)][static_cast<size_t>(w)]) {
        p2.insert(w);
      }
    }
    for (int w : *x) {
      if (adjacency[static_cast<size_t>(v)][static_cast<size_t>(w)]) {
        x2.insert(w);
      }
    }
    r->push_back(v);
    BronKerbosch(adjacency, r, &p2, &x2, out);
    r->pop_back();
    p->erase(v);
    x->insert(v);
  }
}

// True when `sub` (canonical) is a subprojection of `super` (canonical).
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

}  // namespace

std::vector<std::vector<int>> MaximalCliques(
    const std::vector<std::vector<bool>>& adjacency) {
  std::vector<std::vector<int>> out;
  std::vector<int> r;
  std::set<int> p;
  std::set<int> x;
  for (int i = 0; i < static_cast<int>(adjacency.size()); ++i) p.insert(i);
  BronKerbosch(adjacency, &r, &p, &x, &out);
  for (auto& clique : out) std::sort(clique.begin(), clique.end());
  std::sort(out.begin(), out.end());
  return out;
}

CliqueNaryDiscovery::CliqueNaryDiscovery(CliqueNaryOptions options)
    : options_(options), verifier_(options.extractor, options.block_skip) {
  SPIDER_CHECK_GE(options_.max_arity, 2);
}

/// Everything one table pair contributes to the run.
struct CliqueNaryDiscovery::PairOutcome {
  std::vector<NaryInd> maximal;
  int64_t tests = 0;
  RunCounters counters;
  bool finished = true;
};

Result<CliqueNaryResult> CliqueNaryDiscovery::Run(
    const Catalog& catalog, const std::vector<Ind>& unary) const {
  RunContext context;
  return Run(catalog, unary, context);
}

Result<CliqueNaryResult> CliqueNaryDiscovery::Run(
    const Catalog& catalog, const std::vector<Ind>& unary,
    RunContext& context) const {
  CliqueNaryResult result;
  context.Begin(/*total_work=*/0);

  // Group the unary base by table pair.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<AttributeRef, AttributeRef>>>
      pairs;
  for (const Ind& ind : unary) {
    pairs[{ind.dependent.table, ind.referenced.table}].emplace_back(
        ind.dependent, ind.referenced);
  }

  // One task per table pair with at least two unary INDs. Pairs share
  // nothing but the thread-safe verifier, so they dispatch concurrently;
  // outcomes merge in deterministic pair order.
  std::vector<std::pair<std::pair<std::string, std::string>,
                        std::vector<std::pair<AttributeRef, AttributeRef>>>>
      work;
  for (auto& [tables, base] : pairs) {
    if (base.size() >= 2) work.emplace_back(tables, std::move(base));
  }

  auto run_pair = [&](size_t pair_index) -> Result<PairOutcome> {
    const auto& [tables, base] = work[pair_index];
    const int n = static_cast<int>(base.size());
    PairOutcome outcome;

    // Binary edges: node i–j is connected when the two unary INDs are
    // attribute-disjoint and their binary combination is satisfied.
    auto binary_candidate = [&](int i, int j) {
      NaryInd candidate;
      candidate.dependent = {base[static_cast<size_t>(i)].first,
                             base[static_cast<size_t>(j)].first};
      candidate.referenced = {base[static_cast<size_t>(i)].second,
                              base[static_cast<size_t>(j)].second};
      if (!(candidate.dependent[0] < candidate.dependent[1])) {
        std::swap(candidate.dependent[0], candidate.dependent[1]);
        std::swap(candidate.referenced[0], candidate.referenced[1]);
      }
      return candidate;
    };
    std::vector<std::vector<bool>> adjacency(
        static_cast<size_t>(n),
        std::vector<bool>(static_cast<size_t>(n), false));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (base[static_cast<size_t>(i)].first ==
                base[static_cast<size_t>(j)].first ||
            base[static_cast<size_t>(i)].second ==
                base[static_cast<size_t>(j)].second) {
          continue;  // shared attribute: cannot co-occur in one IND
        }
        if (context.ShouldStop()) {
          outcome.finished = false;
          return outcome;
        }
        ++outcome.tests;
        SPIDER_ASSIGN_OR_RETURN(
            bool ok, verifier_.VerifyIncluded(catalog, binary_candidate(i, j),
                                              &outcome.counters,
                                              /*early_stop=*/true));
        context.Step();
        adjacency[static_cast<size_t>(i)][static_cast<size_t>(j)] = ok;
        adjacency[static_cast<size_t>(j)][static_cast<size_t>(i)] = ok;
      }
    }

    // FIND2-style search: every satisfied k-ary IND projects to a clique,
    // so maximal cliques are the only maximal candidates. A clique whose
    // edges all hold can still fail at higher arity (the hypergraph-lift
    // case in the original paper); such a candidate is refined exactly by
    // testing all its (k-1)-node sub-cliques top-down until satisfied
    // nodes are reached.
    std::vector<NaryInd> satisfied_here;
    int64_t tests_here = 0;
    std::vector<std::vector<int>> stack = MaximalCliques(adjacency);
    for (auto& clique : stack) {
      if (static_cast<int>(clique.size()) > options_.max_arity) {
        clique.resize(static_cast<size_t>(options_.max_arity));
      }
    }
    std::set<std::vector<int>> seen(stack.begin(), stack.end());
    while (!stack.empty()) {
      std::vector<int> nodes = std::move(stack.back());
      stack.pop_back();
      if (static_cast<int>(nodes.size()) < 2) continue;
      if (context.ShouldStop()) {
        outcome.finished = false;
        break;
      }

      // Build the candidate in canonical (dependent-sorted) order.
      std::vector<std::pair<AttributeRef, AttributeRef>> members;
      for (int v : nodes) members.push_back(base[static_cast<size_t>(v)]);
      std::sort(members.begin(), members.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      NaryInd candidate;
      for (auto& [dep, ref] : members) {
        candidate.dependent.push_back(dep);
        candidate.referenced.push_back(ref);
      }

      // Skip candidates implied by an already-validated IND.
      bool implied = false;
      for (const NaryInd& winner : satisfied_here) {
        if (IsSubprojection(candidate, winner)) {
          implied = true;
          break;
        }
      }
      if (implied) continue;

      bool ok;
      if (candidate.arity() == 2) {
        ok = true;  // binary cliques are already-validated edges
      } else {
        if (++tests_here > options_.max_tests_per_pair) {
          return Status::ResourceExhausted(
              "clique discovery exceeded max_tests_per_pair for tables " +
              tables.first + " / " + tables.second);
        }
        ++outcome.tests;
        SPIDER_ASSIGN_OR_RETURN(
            ok, verifier_.VerifyIncluded(catalog, candidate, &outcome.counters,
                                         /*early_stop=*/true));
        context.Step();
      }
      if (ok) {
        satisfied_here.push_back(std::move(candidate));
        continue;
      }
      // Exact top-down refinement: all (k-1)-node subsets.
      for (size_t skip = 0; skip < nodes.size(); ++skip) {
        std::vector<int> child;
        for (size_t i = 0; i < nodes.size(); ++i) {
          if (i != skip) child.push_back(nodes[i]);
        }
        if (seen.insert(child).second) stack.push_back(std::move(child));
      }
    }

    // Report only the maximal satisfied INDs of this pair.
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
    result.counters.Merge(outcome.counters);
    pair_peaks.push_back(outcome.counters.peak_open_files);
    result.finished = result.finished && outcome.finished;
  }
  ApplyConcurrentPeakBound(options_.pool, std::move(pair_peaks),
                           result.counters);

  std::sort(result.maximal.begin(), result.maximal.end());
  result.maximal.erase(
      std::unique(result.maximal.begin(), result.maximal.end()),
      result.maximal.end());
  return result;
}

namespace {

class CliqueNaryAlgorithm final : public NaryAlgorithm {
 public:
  explicit CliqueNaryAlgorithm(CliqueNaryOptions options)
      : discovery_(options) {}

  Result<NaryRunResult> Run(const Catalog& catalog,
                            const std::vector<Ind>& unary,
                            RunContext& context) override {
    Stopwatch watch;
    watch.Start();
    SPIDER_ASSIGN_OR_RETURN(CliqueNaryResult result,
                            discovery_.Run(catalog, unary, context));
    NaryRunResult out;
    out.satisfied = std::move(result.maximal);
    out.tests = result.tests;
    out.counters = result.counters;
    out.finished = result.finished;
    out.seconds = watch.ElapsedSeconds();
    return out;
  }

  std::string_view name() const override { return "clique-nary"; }

 private:
  CliqueNaryDiscovery discovery_;
};

}  // namespace

void RegisterCliqueNaryAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;
  capabilities.summary =
      "FIND2-style maximal n-ary INDs: maximal cliques over the satisfied "
      "binary graph, refined top-down, streamed composite-set validation";
  Status status = registry.Register(
      "clique-nary", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<NaryAlgorithm>> {
        CliqueNaryOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        options.block_skip = config.block_skip;
        if (config.max_nary_arity >= 2) {
          options.max_arity = config.max_nary_arity;
        }
        return std::unique_ptr<NaryAlgorithm>(
            new CliqueNaryAlgorithm(options));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
