#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/ind/clique_nary.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// ------------------------------------------------------- MaximalCliques

std::vector<std::vector<bool>> MakeAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<bool>> adjacency(
      static_cast<size_t>(n), std::vector<bool>(static_cast<size_t>(n), false));
  for (auto [a, b] : edges) {
    adjacency[static_cast<size_t>(a)][static_cast<size_t>(b)] = true;
    adjacency[static_cast<size_t>(b)][static_cast<size_t>(a)] = true;
  }
  return adjacency;
}

TEST(MaximalCliquesTest, EmptyGraph) {
  auto cliques = MaximalCliques(MakeAdjacency(3, {}));
  // Three isolated vertices: three singleton cliques.
  EXPECT_EQ(cliques.size(), 3u);
}

TEST(MaximalCliquesTest, Triangle) {
  auto cliques = MaximalCliques(MakeAdjacency(3, {{0, 1}, {1, 2}, {0, 2}}));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1, 2}));
}

TEST(MaximalCliquesTest, PathGraph) {
  // 0-1-2: maximal cliques {0,1} and {1,2}.
  auto cliques = MaximalCliques(MakeAdjacency(3, {{0, 1}, {1, 2}}));
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(cliques[1], (std::vector<int>{1, 2}));
}

TEST(MaximalCliquesTest, TwoTrianglesSharingAVertex) {
  auto cliques = MaximalCliques(
      MakeAdjacency(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}));
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(cliques[1], (std::vector<int>{2, 3, 4}));
}

TEST(MaximalCliquesTest, CompleteGraphK5) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  auto cliques = MaximalCliques(MakeAdjacency(5, edges));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 5u);
}

TEST(MaximalCliquesTest, RandomGraphCliquesAreValidAndMaximal) {
  Random rng(5);
  const int n = 12;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) edges.emplace_back(i, j);
    }
  }
  auto adjacency = MakeAdjacency(n, edges);
  auto cliques = MaximalCliques(adjacency);
  ASSERT_FALSE(cliques.empty());
  for (const auto& clique : cliques) {
    // Every pair inside a clique is connected.
    for (size_t a = 0; a < clique.size(); ++a) {
      for (size_t b = a + 1; b < clique.size(); ++b) {
        EXPECT_TRUE(adjacency[static_cast<size_t>(clique[a])]
                             [static_cast<size_t>(clique[b])]);
      }
    }
    // No vertex outside extends the clique (maximality).
    for (int v = 0; v < n; ++v) {
      if (std::find(clique.begin(), clique.end(), v) != clique.end()) continue;
      bool extends = true;
      for (int u : clique) {
        if (!adjacency[static_cast<size_t>(u)][static_cast<size_t>(v)]) {
          extends = false;
          break;
        }
      }
      EXPECT_FALSE(extends);
    }
  }
}

// --------------------------------------------------- CliqueNaryAlgorithm

// parent/child with a k-wide copied-row relationship (see zigzag_test).
void BuildWide(Catalog* catalog, int cols, int broken_column) {
  Table* parent = *catalog->CreateTable("parent");
  Table* child = *catalog->CreateTable("child");
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(parent->AddColumn("p" + std::to_string(c), TypeId::kString).ok());
    ASSERT_TRUE(child->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
  }
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(c) + "_" +
                                  std::to_string(i)));
    }
    ASSERT_TRUE(parent->AppendRow(row).ok());
    if (i < 8) {
      if (broken_column >= 0 && i == 2) {
        // Substitute another in-domain value: unary still holds, the wide
        // pairing through this column breaks.
        row[static_cast<size_t>(broken_column)] = Value::String(
            "v" + std::to_string(broken_column) + "_9");
      }
      ASSERT_TRUE(child->AppendRow(row).ok());
    }
  }
}

std::vector<Ind> WideUnarySeed(int cols) {
  std::vector<Ind> out;
  for (int c = 0; c < cols; ++c) {
    out.push_back(Ind{{"child", "c" + std::to_string(c)},
                      {"parent", "p" + std::to_string(c)}});
  }
  return out;
}

TEST(CliqueNaryTest, FindsFullWidthIndWithOneCliqueTest) {
  Catalog catalog;
  BuildWide(&catalog, 4, -1);
  CliqueNaryAlgorithm discovery;
  auto result = discovery.Run(catalog, WideUnarySeed(4));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].arity(), 4);
  // 6 binary edges + 1 clique validation.
  EXPECT_EQ(result->tests, 7);
}

TEST(CliqueNaryTest, BrokenColumnSplitsTheClique) {
  Catalog catalog;
  BuildWide(&catalog, 4, /*broken_column=*/3);
  CliqueNaryAlgorithm discovery;
  auto result = discovery.Run(catalog, WideUnarySeed(4));
  ASSERT_TRUE(result.ok());
  // Binary INDs involving column 3 fail, so the clique is {0,1,2}: the
  // ternary IND over the intact columns is maximal.
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].arity(), 3);
  for (const AttributeRef& dep : result->satisfied[0].dependent) {
    EXPECT_NE(dep.column, "c3");
  }
}

TEST(CliqueNaryTest, ResultsAreSoundAndMutuallyMaximal) {
  Catalog catalog;
  BuildWide(&catalog, 5, 2);
  CliqueNaryAlgorithm discovery;
  auto result = discovery.Run(catalog, WideUnarySeed(5));
  ASSERT_TRUE(result.ok());
  CompositeSetVerifier verifier;
  for (const NaryInd& ind : result->satisfied) {
    auto verdict = verifier.VerifyIncluded(catalog, ind, nullptr,
                                           /*early_stop=*/true);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict) << ind.ToString();
  }
}

TEST(CliqueNaryTest, SingleUnaryYieldsNothing) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"v"});
  testing::AddStringColumn(&catalog, "r", "c", {"v"});
  CliqueNaryAlgorithm discovery;
  auto result = discovery.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_EQ(result->tests, 0);
}

TEST(CliqueNaryTest, TestBudgetSurfacesError) {
  Catalog catalog;
  BuildWide(&catalog, 6, 1);
  CliqueNaryOptions options;
  options.max_tests_per_pair = 0;  // any clique validation exceeds
  CliqueNaryAlgorithm discovery(options);
  auto result = discovery.Run(catalog, WideUnarySeed(6));
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

// Property sweep: clique-based maximal INDs match the maximal INDs derived
// from exhaustive levelwise discovery.
class CliqueNaryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CliqueNaryPropertyTest, MatchesLevelwiseMaximalInds) {
  Random rng(static_cast<uint64_t>(GetParam()));
  Catalog catalog;
  const int cols = 4;
  Table* parent = *catalog.CreateTable("parent");
  Table* child = *catalog.CreateTable("child");
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(parent->AddColumn("p" + std::to_string(c), TypeId::kString).ok());
    ASSERT_TRUE(child->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
  }
  std::vector<std::vector<Value>> parent_rows;
  for (int i = 0; i < 30; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, 7))));
    }
    parent_rows.push_back(row);
    ASSERT_TRUE(parent->AppendRow(std::move(row)).ok());
  }
  for (int i = 0; i < 12; ++i) {
    if (rng.Bernoulli(0.8)) {
      ASSERT_TRUE(child
                      ->AppendRow(parent_rows[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(parent_rows.size()) - 1))])
                      .ok());
    } else {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, 7))));
      }
      ASSERT_TRUE(child->AppendRow(std::move(row)).ok());
    }
  }
  // Positional unary seed (keeps the exact levelwise reference tractable).
  std::vector<Ind> unary;
  for (int c = 0; c < cols; ++c) {
    const Column* dep = child->FindColumn("c" + std::to_string(c));
    const Column* ref = parent->FindColumn("p" + std::to_string(c));
    if (testing::NaiveIncluded(*dep, *ref)) {
      unary.push_back(Ind{{"child", dep->name()}, {"parent", ref->name()}});
    }
  }

  CliqueNaryAlgorithm clique;
  auto clique_result = clique.Run(catalog, unary);
  ASSERT_TRUE(clique_result.ok());

  NaryDiscoveryOptions lw_options;
  lw_options.max_arity = cols;
  auto levelwise = LevelwiseNaryAlgorithm(lw_options).Run(catalog, unary);
  ASSERT_TRUE(levelwise.ok());
  // Maximal INDs from the levelwise result: those not strictly contained
  // in another satisfied IND.
  const std::vector<NaryInd>& all = levelwise->satisfied;
  std::set<NaryInd> levelwise_maximal;
  for (const NaryInd& a : all) {
    bool maximal = true;
    for (const NaryInd& b : all) {
      if (a.arity() >= b.arity()) continue;
      // subprojection check through re-verification of membership
      std::set<std::pair<AttributeRef, AttributeRef>> super;
      for (size_t i = 0; i < b.dependent.size(); ++i) {
        super.emplace(b.dependent[i], b.referenced[i]);
      }
      bool contained = true;
      for (size_t i = 0; i < a.dependent.size(); ++i) {
        if (!super.contains({a.dependent[i], a.referenced[i]})) {
          contained = false;
          break;
        }
      }
      if (contained) {
        maximal = false;
        break;
      }
    }
    if (maximal) levelwise_maximal.insert(a);
  }

  std::set<NaryInd> clique_maximal(clique_result->satisfied.begin(),
                                   clique_result->satisfied.end());
  EXPECT_EQ(clique_maximal, levelwise_maximal);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CliqueNaryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace spider
