#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/common/random.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary.h"
#include "src/storage/composite_cursor.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// Builds parent(a, b) and child(x, y) where (x, y) ⊆ (a, b) holds iff
// `satisfied`.
void BuildPair(Catalog* catalog, bool satisfied) {
  Table* parent = *catalog->CreateTable("parent");
  ASSERT_TRUE(parent->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("b", TypeId::kString).ok());
  ASSERT_TRUE(parent
                  ->AppendRow({Value::String("k1"), Value::String("v1")})
                  .ok());
  ASSERT_TRUE(parent
                  ->AppendRow({Value::String("k2"), Value::String("v2")})
                  .ok());
  ASSERT_TRUE(parent
                  ->AppendRow({Value::String("k3"), Value::String("v3")})
                  .ok());

  Table* child = *catalog->CreateTable("child");
  ASSERT_TRUE(child->AddColumn("x", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("y", TypeId::kString).ok());
  ASSERT_TRUE(
      child->AppendRow({Value::String("k1"), Value::String("v1")}).ok());
  // Unary projections hold either way (k2 ∈ a, v3 ∈ b); the pairing does
  // not when `satisfied` is false.
  ASSERT_TRUE(child
                  ->AppendRow({Value::String("k2"),
                               Value::String(satisfied ? "v2" : "v3")})
                  .ok());
}

int CountArity(const std::vector<NaryInd>& inds, int arity) {
  return static_cast<int>(std::count_if(
      inds.begin(), inds.end(),
      [arity](const NaryInd& ind) { return ind.arity() == arity; }));
}

NaryInd BinaryCandidate() {
  return NaryInd{{{"child", "x"}, {"child", "y"}},
                 {{"parent", "a"}, {"parent", "b"}}};
}

TEST(EncodeCompositeKeyTest, UnambiguousConcatenation) {
  // ("ab", "c") and ("a", "bc") must encode differently.
  EXPECT_NE(EncodeCompositeKey({"ab", "c"}), EncodeCompositeKey({"a", "bc"}));
  EXPECT_NE(EncodeCompositeKey({"", "x"}), EncodeCompositeKey({"x", ""}));
  EXPECT_EQ(EncodeCompositeKey({"ab", "c"}), EncodeCompositeKey({"ab", "c"}));
}

TEST(NaryVerifyTest, SatisfiedBinaryInd) {
  Catalog catalog;
  BuildPair(&catalog, /*satisfied=*/true);
  CompositeSetVerifier verifier;
  auto verdict = verifier.VerifyIncluded(catalog, BinaryCandidate(), nullptr,
                                         /*early_stop=*/true);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(NaryVerifyTest, RefutedByWrongPairing) {
  Catalog catalog;
  BuildPair(&catalog, /*satisfied=*/false);
  CompositeSetVerifier verifier;
  auto verdict = verifier.VerifyIncluded(catalog, BinaryCandidate(), nullptr,
                                         /*early_stop=*/true);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict);
}

TEST(NaryVerifyTest, NullComponentsSkipTuple) {
  Catalog catalog;
  Table* parent = *catalog.CreateTable("parent");
  ASSERT_TRUE(parent->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("b", TypeId::kString).ok());
  ASSERT_TRUE(
      parent->AppendRow({Value::String("k"), Value::String("v")}).ok());
  Table* child = *catalog.CreateTable("child");
  ASSERT_TRUE(child->AddColumn("x", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("y", TypeId::kString).ok());
  // The NULL-bearing tuple would not match but is skipped per SQL MATCH
  // SIMPLE semantics.
  ASSERT_TRUE(child->AppendRow({Value::String("zz"), Value::Null()}).ok());
  ASSERT_TRUE(child->AppendRow({Value::String("k"), Value::String("v")}).ok());
  CompositeSetVerifier verifier;
  auto verdict = verifier.VerifyIncluded(
      catalog,
      NaryInd{{{"child", "x"}, {"child", "y"}},
              {{"parent", "a"}, {"parent", "b"}}},
      nullptr, /*early_stop=*/true);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(NaryVerifyTest, MalformedCandidatesRejected) {
  Catalog catalog;
  BuildPair(&catalog, true);
  CompositeSetVerifier verifier;
  // Arity mismatch.
  NaryInd bad{{{"child", "x"}}, {{"parent", "a"}, {"parent", "b"}}};
  EXPECT_TRUE(verifier.VerifyIncluded(catalog, bad, nullptr, true)
                  .status()
                  .IsInvalidArgument());
  // Mixed tables on one side.
  NaryInd mixed{{{"child", "x"}, {"parent", "a"}},
                {{"parent", "a"}, {"parent", "b"}}};
  EXPECT_TRUE(verifier.VerifyIncluded(catalog, mixed, nullptr, true)
                  .status()
                  .IsInvalidArgument());
}

TEST(NaryDiscoveryTest, FindsBinaryIndFromUnarySeed) {
  Catalog catalog;
  BuildPair(&catalog, true);
  std::vector<Ind> unary = {
      {{"child", "x"}, {"parent", "a"}},
      {{"child", "y"}, {"parent", "b"}},
  };
  LevelwiseNaryAlgorithm discovery;
  auto result = discovery.Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied, std::vector<NaryInd>{BinaryCandidate()});
}

TEST(NaryDiscoveryTest, RefutedPairingYieldsNoBinaryInd) {
  Catalog catalog;
  BuildPair(&catalog, false);
  std::vector<Ind> unary = {
      {{"child", "x"}, {"parent", "a"}},
      {{"child", "y"}, {"parent", "b"}},
  };
  auto result = LevelwiseNaryAlgorithm().Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_EQ(result->tests, 1);  // the one binary candidate
}

TEST(NaryDiscoveryTest, CrossTableUnariesNeverCombine) {
  Catalog catalog;
  BuildPair(&catalog, true);
  testing::AddStringColumn(&catalog, "other", "z", {"k1"});
  std::vector<Ind> unary = {
      {{"child", "x"}, {"parent", "a"}},
      {{"other", "z"}, {"parent", "b"}},  // different dependent table
  };
  auto result = LevelwiseNaryAlgorithm().Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
}

TEST(NaryDiscoveryTest, ThreeColumnChainReachesTernary) {
  // parent(a,b,c) with child(x,y,z) copying whole rows: every projection
  // and the full ternary IND hold.
  Catalog catalog;
  Table* parent = *catalog.CreateTable("parent");
  ASSERT_TRUE(parent->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("b", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("c", TypeId::kString).ok());
  Table* child = *catalog.CreateTable("child");
  ASSERT_TRUE(child->AddColumn("x", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("y", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("z", TypeId::kString).ok());
  for (int i = 0; i < 6; ++i) {
    std::vector<Value> row = {Value::String("a" + std::to_string(i)),
                              Value::String("b" + std::to_string(i)),
                              Value::String("c" + std::to_string(i))};
    ASSERT_TRUE(parent->AppendRow(row).ok());
    if (i < 4) {
      ASSERT_TRUE(child->AppendRow(row).ok());
    }
  }
  std::vector<Ind> unary = {
      {{"child", "x"}, {"parent", "a"}},
      {{"child", "y"}, {"parent", "b"}},
      {{"child", "z"}, {"parent", "c"}},
  };
  AlgorithmConfig config;
  config.max_nary_arity = 3;
  auto result = LevelwiseNaryAlgorithm(config).Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountArity(result->satisfied, 2), 3);  // all binary pairings
  EXPECT_EQ(CountArity(result->satisfied, 3), 1);  // the full ternary IND
  EXPECT_EQ(result->satisfied.size(), 4u);
}

TEST(NaryDiscoveryTest, DownwardClosurePrunesCandidates) {
  // x ⊆ a and y ⊆ b hold individually, (x,y) ⊆ (a,b) fails; a third pair
  // (x,z)⊆(a,c) also fails — so no ternary candidate may even be generated.
  Catalog catalog;
  Table* parent = *catalog.CreateTable("parent");
  ASSERT_TRUE(parent->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("b", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("c", TypeId::kString).ok());
  ASSERT_TRUE(parent
                  ->AppendRow({Value::String("k1"), Value::String("v1"),
                               Value::String("w1")})
                  .ok());
  ASSERT_TRUE(parent
                  ->AppendRow({Value::String("k2"), Value::String("v2"),
                               Value::String("w2")})
                  .ok());
  Table* child = *catalog.CreateTable("child");
  ASSERT_TRUE(child->AddColumn("x", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("y", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("z", TypeId::kString).ok());
  // Mis-paired rows: k1 with v2 / w2.
  ASSERT_TRUE(child
                  ->AppendRow({Value::String("k1"), Value::String("v2"),
                               Value::String("w2")})
                  .ok());
  std::vector<Ind> unary = {
      {{"child", "x"}, {"parent", "a"}},
      {{"child", "y"}, {"parent", "b"}},
      {{"child", "z"}, {"parent", "c"}},
  };
  AlgorithmConfig config;
  config.max_nary_arity = 3;
  auto result = LevelwiseNaryAlgorithm(config).Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  // Level 2: (x,y)⊆(a,b) and (x,z)⊆(a,c) fail; (y,z)⊆(b,c) holds (v2/w2
  // pair exists in parent).
  EXPECT_EQ(CountArity(result->satisfied, 2), 1);
  // Level 3 has no candidate at all: two of its three subprojections are
  // unsatisfied, so Apriori generation must not emit it — only the three
  // binary candidates were tested.
  EXPECT_EQ(CountArity(result->satisfied, 3), 0);
  EXPECT_EQ(result->tests, 3);
}

// Property sweep: levelwise discovery equals brute-force verification of
// every canonical pair combination on random two-table catalogs.
class NaryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NaryPropertyTest, BinaryLevelMatchesExhaustiveCheck) {
  Random rng(static_cast<uint64_t>(GetParam()));
  Catalog catalog;
  const int cols = 3;
  Table* parent = *catalog.CreateTable("parent");
  Table* child = *catalog.CreateTable("child");
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(parent->AddColumn("p" + std::to_string(c), TypeId::kString).ok());
    ASSERT_TRUE(child->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
  }
  auto random_row = [&](int universe) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, universe))));
    }
    return row;
  };
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(parent->AppendRow(random_row(4)).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(child->AppendRow(random_row(4)).ok());

  // Unary seed: exhaustively checked unary INDs child.* ⊆ parent.*.
  std::vector<Ind> unary;
  for (int d = 0; d < cols; ++d) {
    for (int r = 0; r < cols; ++r) {
      const Column* dep = child->FindColumn("c" + std::to_string(d));
      const Column* ref = parent->FindColumn("p" + std::to_string(r));
      if (testing::NaiveIncluded(*dep, *ref)) {
        unary.push_back(Ind{{"child", dep->name()}, {"parent", ref->name()}});
      }
    }
  }

  AlgorithmConfig config;
  config.max_nary_arity = 2;
  auto result = LevelwiseNaryAlgorithm(config).Run(catalog, unary);
  ASSERT_TRUE(result.ok());
  std::set<NaryInd> found(result->satisfied.begin(), result->satisfied.end());

  // Exhaustive reference: all canonical binary combinations verified by
  // direct tuple containment.
  std::set<NaryInd> expected;
  CompositeSetVerifier verifier;
  for (const Ind& first : unary) {
    for (const Ind& second : unary) {
      if (!(first.dependent < second.dependent)) continue;
      if (first.referenced == second.referenced) continue;
      NaryInd candidate{{first.dependent, second.dependent},
                        {first.referenced, second.referenced}};
      auto verdict = verifier.VerifyIncluded(catalog, candidate, nullptr,
                                             /*early_stop=*/true);
      ASSERT_TRUE(verdict.ok());
      if (*verdict) expected.insert(candidate);
    }
  }
  EXPECT_EQ(found, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NaryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace spider
