#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/ind/composite_verify.h"
#include "src/ind/nary.h"
#include "src/ind/zigzag.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// parent(a,b,c) / child(x,y,z) where child rows are copied parent rows:
// the ternary IND (x,y,z) ⊆ (a,b,c) holds.
void BuildTernary(Catalog* catalog, bool break_one_column) {
  Table* parent = *catalog->CreateTable("parent");
  ASSERT_TRUE(parent->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("b", TypeId::kString).ok());
  ASSERT_TRUE(parent->AddColumn("c", TypeId::kString).ok());
  Table* child = *catalog->CreateTable("child");
  ASSERT_TRUE(child->AddColumn("x", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("y", TypeId::kString).ok());
  ASSERT_TRUE(child->AddColumn("z", TypeId::kString).ok());
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> row = {Value::String("a" + std::to_string(i)),
                              Value::String("b" + std::to_string(i)),
                              Value::String("c" + std::to_string(i))};
    ASSERT_TRUE(parent->AppendRow(row).ok());
    if (i < 8) {
      if (break_one_column && i == 3) {
        // One mis-paired z component: (x,y,z) fails, (x,y) still holds.
        row[2] = Value::String("c9");
        // (x,z) and (y,z) also break for this tuple pairing... z's value
        // c9 exists in parent.c, so unary z ⊆ c still holds.
      }
      ASSERT_TRUE(child->AppendRow(row).ok());
    }
  }
}

std::vector<Ind> TernaryUnarySeed() {
  return {
      {{"child", "x"}, {"parent", "a"}},
      {{"child", "y"}, {"parent", "b"}},
      {{"child", "z"}, {"parent", "c"}},
  };
}

TEST(ZigzagErrorTest, ZeroForSatisfiedCandidate) {
  Catalog catalog;
  BuildTernary(&catalog, false);
  CompositeSetVerifier verifier;
  NaryInd candidate{{{"child", "x"}, {"child", "y"}, {"child", "z"}},
                    {{"parent", "a"}, {"parent", "b"}, {"parent", "c"}}};
  auto error = verifier.Error(catalog, candidate, nullptr);
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.0);
}

TEST(ZigzagErrorTest, FractionOfViolatingTuples) {
  Catalog catalog;
  BuildTernary(&catalog, true);
  CompositeSetVerifier verifier;
  NaryInd candidate{{{"child", "x"}, {"child", "y"}, {"child", "z"}},
                    {{"parent", "a"}, {"parent", "b"}, {"parent", "c"}}};
  auto error = verifier.Error(catalog, candidate, nullptr);
  ASSERT_TRUE(error.ok());
  // 1 of 8 distinct child tuples violates.
  EXPECT_DOUBLE_EQ(*error, 1.0 / 8.0);
}

TEST(ZigzagTest, OptimisticJumpFindsMaximalIndInOneTest) {
  Catalog catalog;
  BuildTernary(&catalog, false);
  ZigzagAlgorithm zigzag;
  auto result = zigzag.Run(catalog, TernaryUnarySeed());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].arity(), 3);
  // The optimistic jump needs exactly one data test for the whole lattice.
  EXPECT_EQ(result->tests, 1);
}

TEST(ZigzagTest, TopDownRefinementAfterNearMiss) {
  Catalog catalog;
  BuildTernary(&catalog, true);
  ZigzagAlgorithm zigzag({}, /*epsilon=*/0.5);  // 1/8 error refines top-down
  auto result = zigzag.Run(catalog, TernaryUnarySeed());
  ASSERT_TRUE(result.ok());
  // (x,y) ⊆ (a,b) survives; reported maximal INDs must all be satisfied
  // and include it.
  bool found_xy = false;
  CompositeSetVerifier verifier;
  for (const NaryInd& ind : result->satisfied) {
    auto verdict = verifier.VerifyIncluded(catalog, ind, nullptr,
                                           /*early_stop=*/true);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict) << ind.ToString();
    if (ind.arity() == 2 &&
        ind.dependent[0].ToString() == "child.x" &&
        ind.dependent[1].ToString() == "child.y") {
      found_xy = true;
    }
  }
  EXPECT_TRUE(found_xy);
}

TEST(ZigzagTest, LargeEpsilonZeroAbandonsBadBranches) {
  Catalog catalog;
  BuildTernary(&catalog, true);
  // Never refine: the failed optimistic test is final.
  ZigzagAlgorithm zigzag({}, /*epsilon=*/0.0);
  auto result = zigzag.Run(catalog, TernaryUnarySeed());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_EQ(result->tests, 1);
}

TEST(ZigzagTest, SingleUnaryIndPerPairYieldsNothing) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"v"});
  testing::AddStringColumn(&catalog, "r", "c", {"v", "w"});
  ZigzagAlgorithm zigzag;
  auto result = zigzag.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_EQ(result->tests, 0);
}

TEST(ZigzagTest, MaximalSetContainsNoSubprojectionPairs) {
  Catalog catalog;
  BuildTernary(&catalog, false);
  ZigzagAlgorithm zigzag;
  auto result = zigzag.Run(catalog, TernaryUnarySeed());
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->satisfied.size(); ++i) {
    for (size_t j = 0; j < result->satisfied.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(result->satisfied[i].dependent.size() <
                       result->satisfied[j].dependent.size() &&
                   result->satisfied[i].ToString() ==
                       result->satisfied[j].ToString());
    }
  }
}

// Property sweep: every zigzag-reported IND is genuinely satisfied, and
// with a permissive epsilon zigzag finds an IND at least as large as the
// levelwise maximum for the same seed.
class ZigzagPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ZigzagPropertyTest, SoundAndCompetitiveWithLevelwise) {
  Random rng(static_cast<uint64_t>(GetParam()));
  Catalog catalog;
  const int cols = 4;
  Table* parent = *catalog.CreateTable("parent");
  Table* child = *catalog.CreateTable("child");
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(parent->AddColumn("p" + std::to_string(c), TypeId::kString).ok());
    ASSERT_TRUE(child->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
  }
  // Parent: random rows. Child: mostly copied parent rows (high chance of
  // wide INDs), some random rows.
  std::vector<std::vector<Value>> parent_rows;
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, 9))));
    }
    parent_rows.push_back(row);
    ASSERT_TRUE(parent->AppendRow(std::move(row)).ok());
  }
  for (int i = 0; i < 15; ++i) {
    if (rng.Bernoulli(0.85)) {
      ASSERT_TRUE(child
                      ->AppendRow(parent_rows[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(parent_rows.size()) - 1))])
                      .ok());
    } else {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, 9))));
      }
      ASSERT_TRUE(child->AppendRow(std::move(row)).ok());
    }
  }

  // Exhaustive unary seed (positional: c_i ⊆ p_i only, keeping the lattice
  // small enough for an exact levelwise reference).
  std::vector<Ind> unary;
  for (int c = 0; c < cols; ++c) {
    const Column* dep = child->FindColumn("c" + std::to_string(c));
    const Column* ref = parent->FindColumn("p" + std::to_string(c));
    if (testing::NaiveIncluded(*dep, *ref)) {
      unary.push_back(Ind{{"child", dep->name()}, {"parent", ref->name()}});
    }
  }

  // Always refine: complete within the seeds.
  auto zigzag = ZigzagAlgorithm({}, /*epsilon=*/1.0).Run(catalog, unary);
  ASSERT_TRUE(zigzag.ok());

  CompositeSetVerifier verifier;
  int zigzag_max_arity = 0;
  for (const NaryInd& ind : zigzag->satisfied) {
    auto verdict = verifier.VerifyIncluded(catalog, ind, nullptr,
                                           /*early_stop=*/true);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict) << ind.ToString();  // soundness
    zigzag_max_arity = std::max(zigzag_max_arity, ind.arity());
  }

  AlgorithmConfig lw_config;
  lw_config.max_nary_arity = cols;
  auto levelwise = LevelwiseNaryAlgorithm(lw_config).Run(catalog, unary);
  ASSERT_TRUE(levelwise.ok());
  int levelwise_max_arity = static_cast<int>(unary.size() >= 1 ? 1 : 0);
  for (const NaryInd& ind : levelwise->satisfied) {
    levelwise_max_arity = std::max(levelwise_max_arity, ind.arity());
  }
  if (levelwise_max_arity >= 2) {
    EXPECT_GE(zigzag_max_arity, levelwise_max_arity);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZigzagPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace spider
