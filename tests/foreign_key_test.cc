#include <gtest/gtest.h>

#include "src/discovery/foreign_key.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class ForeignKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // a.fk -> b.pk -> declared; chain c.fk -> a.fk? Keep simple:
    //   declared: child.fk -> mid.pk, mid.other -> top.pk
    //   so child.fk ⊆ top.pk (via data) is "transitive" when discovered.
    testing::AddStringColumn(&catalog_, "child", "fk", {"a", "b"});
    testing::AddStringColumn(&catalog_, "mid", "pk", {"a", "b", "c"}, true);
    testing::AddStringColumn(&catalog_, "top", "pk", {"a", "b", "c", "d"}, true);
    // An empty referencing column for the undetectable case.
    testing::AddStringColumn(&catalog_, "empty", "fk", {"", ""});
    catalog_.DeclareForeignKey(ForeignKey{{"child", "fk"}, {"mid", "pk"}});
    catalog_.DeclareForeignKey(ForeignKey{{"mid", "pk"}, {"top", "pk"}});
    catalog_.DeclareForeignKey(ForeignKey{{"empty", "fk"}, {"top", "pk"}});
  }

  // Guesses with the distinct counts the candidate generator measures on
  // catalog_, as the run that found `inds` would have.
  std::vector<ForeignKey> Guess(const std::vector<Ind>& inds) const {
    auto graph = CandidateGenerator().GenerateGraph(catalog_);
    if (!graph.ok()) {
      ADD_FAILURE() << graph.status().ToString();
      return {};
    }
    return GuessForeignKeys(*graph, inds);
  }

  Catalog catalog_;
};

TEST_F(ForeignKeyTest, ClassifiesTruePositives) {
  std::vector<Ind> inds = {{{"child", "fk"}, {"mid", "pk"}}};
  FkEvaluation eval = EvaluateForeignKeys(catalog_, inds);
  ASSERT_EQ(eval.true_positives.size(), 1u);
  EXPECT_TRUE(eval.false_positives.empty());
  EXPECT_TRUE(eval.transitive.empty());
}

TEST_F(ForeignKeyTest, ClassifiesTransitiveClosureInds) {
  std::vector<Ind> inds = {
      {{"child", "fk"}, {"mid", "pk"}},
      {{"mid", "pk"}, {"top", "pk"}},
      {{"child", "fk"}, {"top", "pk"}},  // implied, not declared
  };
  FkEvaluation eval = EvaluateForeignKeys(catalog_, inds);
  EXPECT_EQ(eval.true_positives.size(), 2u);
  ASSERT_EQ(eval.transitive.size(), 1u);
  EXPECT_EQ(eval.transitive[0].ToString(), "child.fk [= top.pk");
  EXPECT_TRUE(eval.false_positives.empty());
}

TEST_F(ForeignKeyTest, ClassifiesFalsePositives) {
  std::vector<Ind> inds = {{{"top", "pk"}, {"mid", "pk"}}};  // wrong direction
  FkEvaluation eval = EvaluateForeignKeys(catalog_, inds);
  EXPECT_EQ(eval.false_positives.size(), 1u);
}

TEST_F(ForeignKeyTest, SeparatesMissedFromUndetectable) {
  // Nothing discovered: child.fk->mid.pk and mid.pk->top.pk are missed
  // (their referencing columns hold data); empty.fk->top.pk is undetectable.
  FkEvaluation eval = EvaluateForeignKeys(catalog_, {});
  EXPECT_EQ(eval.missed.size(), 2u);
  ASSERT_EQ(eval.undetectable.size(), 1u);
  EXPECT_EQ(eval.undetectable[0].referencing.table, "empty");
  EXPECT_DOUBLE_EQ(eval.DetectableRecall(), 0.0);
}

TEST_F(ForeignKeyTest, PerfectRecallWhenAllDetectableFound) {
  std::vector<Ind> inds = {
      {{"child", "fk"}, {"mid", "pk"}},
      {{"mid", "pk"}, {"top", "pk"}},
  };
  FkEvaluation eval = EvaluateForeignKeys(catalog_, inds);
  EXPECT_TRUE(eval.missed.empty());
  EXPECT_EQ(eval.undetectable.size(), 1u);
  EXPECT_DOUBLE_EQ(eval.DetectableRecall(), 1.0);
}

TEST_F(ForeignKeyTest, RecallIsOneWithNoGoldFks) {
  Catalog catalog;
  FkEvaluation eval = EvaluateForeignKeys(catalog, {});
  EXPECT_DOUBLE_EQ(eval.DetectableRecall(), 1.0);
}

TEST_F(ForeignKeyTest, GuessPicksTightestReferencedSet) {
  // child.fk is included in both mid.pk (3 values) and top.pk (4 values):
  // the guess should pick the smaller superset, mid.pk.
  std::vector<Ind> inds = {
      {{"child", "fk"}, {"top", "pk"}},
      {{"child", "fk"}, {"mid", "pk"}},
  };
  auto guesses = Guess(inds);
  ASSERT_EQ(guesses.size(), 1u);
  EXPECT_EQ(guesses[0].ToString(), "child.fk -> mid.pk");
}

TEST_F(ForeignKeyTest, GuessEmitsOnePerDependentAttribute) {
  std::vector<Ind> inds = {
      {{"child", "fk"}, {"mid", "pk"}},
      {{"mid", "pk"}, {"top", "pk"}},
  };
  auto guesses = Guess(inds);
  EXPECT_EQ(guesses.size(), 2u);
}

TEST_F(ForeignKeyTest, GuessOnEmptyInputIsEmpty) {
  EXPECT_TRUE(Guess({}).empty());
}

}  // namespace
}  // namespace spider
