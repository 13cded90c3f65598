#include "src/ind/clique_nary.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/ind/registry.h"
#include "src/ind/run_batch.h"

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

CliqueNaryAlgorithm::CliqueNaryAlgorithm(const AlgorithmConfig& config,
                                         int64_t max_tests_per_pair)
    : config_(config),
      max_tests_per_pair_(max_tests_per_pair),
      verifier_(config.extractor, config.block_skip) {
  if (config_.max_nary_arity < 2) config_.max_nary_arity = 16;
}

Result<NaryRunResult> CliqueNaryAlgorithm::Run(const Catalog& catalog,
                                               const std::vector<Ind>& unary,
                                               RunContext& context) {
  // One task per table pair. Pairs share nothing but the thread-safe
  // verifier, so they dispatch concurrently.
  const std::vector<UnaryPairs> pairs = GroupByTablePair(unary);
  auto run_pair = [&](size_t pair_index) -> Result<NaryRunResult> {
    const UnaryPairs& base = pairs[pair_index];
    const int n = static_cast<int>(base.size());
    NaryRunResult outcome;

    // Binary edges: node i–j is connected when the two unary INDs are
    // attribute-disjoint and their binary combination is satisfied.
    std::vector<std::vector<bool>> adjacency(
        static_cast<size_t>(n),
        std::vector<bool>(static_cast<size_t>(n), false));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const auto& first = base[static_cast<size_t>(i)];
        const auto& second = base[static_cast<size_t>(j)];
        if (first.first == second.first || first.second == second.second) {
          continue;  // shared attribute: cannot co-occur in one IND
        }
        if (context.ShouldStop()) {
          outcome.finished = false;
          return outcome;
        }
        ++outcome.tests;
        SPIDER_ASSIGN_OR_RETURN(
            const bool ok,
            verifier_.VerifyIncluded(catalog,
                                     CanonicalNaryInd({first, second}),
                                     &outcome.counters, /*early_stop=*/true));
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
      if (static_cast<int>(clique.size()) > config_.max_nary_arity) {
        clique.resize(static_cast<size_t>(config_.max_nary_arity));
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

      UnaryPairs members;
      for (int v : nodes) members.push_back(base[static_cast<size_t>(v)]);
      NaryInd candidate = CanonicalNaryInd(std::move(members));
      if (IsImplied(candidate, satisfied_here)) continue;

      bool ok = true;  // binary cliques are already-validated edges
      if (candidate.arity() > 2) {
        if (++tests_here > max_tests_per_pair_) {
          return Status::ResourceExhausted(
              "clique discovery exceeded max_tests_per_pair for tables " +
              base[0].first.table + " / " + base[0].second.table);
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

    outcome.satisfied = MaximalInds(satisfied_here);
    return outcome;
  };
  SPIDER_ASSIGN_OR_RETURN(
      NaryRunResult result,
      RunBatch<NaryInd>(config_.pool, pairs.size(), context, run_pair));
  std::sort(result.satisfied.begin(), result.satisfied.end());
  result.satisfied.erase(
      std::unique(result.satisfied.begin(), result.satisfied.end()),
      result.satisfied.end());
  return result;
}

void RegisterCliqueNaryAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.summary =
      "FIND2-style maximal n-ary INDs: maximal cliques over the satisfied "
      "binary graph, refined top-down, streamed composite-set validation";
  Status status = registry.Register(
      "clique-nary", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<CliqueNaryAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
