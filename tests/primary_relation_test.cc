#include <gtest/gtest.h>

#include "src/discovery/primary_relation.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class PrimaryRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tables with accession-shaped columns; "main" is referenced by the
    // most INDs. "noacc" has no accession candidate at all. The child FK
    // columns hold digit-only values so they do not themselves qualify.
    testing::AddStringColumn(&catalog_, "main", "acc", {"AAAA01", "AAAA02"});
    testing::AddStringColumn(&catalog_, "side", "acc", {"BBBB01", "BBBB02"});
    testing::AddStringColumn(&catalog_, "noacc", "num", {"123456", "234567"});
    testing::AddStringColumn(&catalog_, "child1", "fk", {"11111"});
    testing::AddStringColumn(&catalog_, "child2", "fk", {"22222"});
  }

  Catalog catalog_;
};

TEST_F(PrimaryRelationTest, RanksByInboundIndCount) {
  std::vector<Ind> inds = {
      {{"child1", "fk"}, {"main", "acc"}},
      {{"child2", "fk"}, {"main", "acc"}},
      {{"child1", "fk"}, {"side", "acc"}},
  };
  auto ranked = testing::RankPrimaryRelations(catalog_, inds);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);  // noacc has no accession candidate
  EXPECT_EQ((*ranked)[0].table, "main");
  EXPECT_EQ((*ranked)[0].inbound_ind_count, 2);
  EXPECT_EQ((*ranked)[1].table, "side");
  EXPECT_EQ((*ranked)[1].inbound_ind_count, 1);
}

TEST_F(PrimaryRelationTest, CountsIndsIntoAnyAttributeOfTheTable) {
  // INDs referencing a non-accession attribute of the table still count
  // ("the number of INDs referencing any attribute in a relation").
  Catalog catalog;
  Table* t = *catalog.CreateTable("main");
  ASSERT_TRUE(t->AddColumn("acc", TypeId::kString).ok());
  ASSERT_TRUE(t->AddColumn("other", TypeId::kString).ok());
  ASSERT_TRUE(
      t->AppendRow({Value::String("AAAA01"), Value::String("x1")}).ok());
  ASSERT_TRUE(
      t->AppendRow({Value::String("AAAA02"), Value::String("x2")}).ok());
  testing::AddStringColumn(&catalog, "child", "fk", {"x1"});

  std::vector<Ind> inds = {{{"child", "fk"}, {"main", "other"}}};
  auto ranked = testing::RankPrimaryRelations(catalog, inds);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 1u);
  EXPECT_EQ((*ranked)[0].inbound_ind_count, 1);
}

TEST_F(PrimaryRelationTest, TieBrokenByTableNameForDeterminism) {
  std::vector<Ind> inds = {
      {{"child1", "fk"}, {"main", "acc"}},
      {{"child2", "fk"}, {"side", "acc"}},
  };
  auto ranked = testing::RankPrimaryRelations(catalog_, inds);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].table, "main");  // "main" < "side"
}

TEST_F(PrimaryRelationTest, NoAccessionCandidatesYieldsEmptyRanking) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "num", {"111111", "222222"});
  auto ranked = testing::RankPrimaryRelations(catalog, {});
  ASSERT_TRUE(ranked.ok());
  EXPECT_TRUE(ranked->empty());
}

TEST_F(PrimaryRelationTest, ZeroIndsStillRanksAccessionTables) {
  auto ranked = testing::RankPrimaryRelations(catalog_, {});
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].inbound_ind_count, 0);
}

TEST_F(PrimaryRelationTest, ReportsAccessionCandidatesPerTable) {
  auto ranked = testing::RankPrimaryRelations(catalog_, {});
  ASSERT_TRUE(ranked.ok());
  for (const auto& entry : *ranked) {
    ASSERT_EQ(entry.accession_candidates.size(), 1u);
    EXPECT_EQ(entry.accession_candidates[0].attribute.table, entry.table);
  }
}

}  // namespace
}  // namespace spider
