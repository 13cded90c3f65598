// End-to-end reproductions of the paper's qualitative findings (Sec. 5), at
// test scale: FK discovery on the BioSQL-like gold standard, primary-
// relation identification, SCOP IND counts, the PDB surrogate-key effect,
// and cross-algorithm agreement.

#include <gtest/gtest.h>

#include "src/datagen/pdb_like.h"
#include "src/datagen/scop_like.h"
#include "src/datagen/uniprot_like.h"
#include "src/discovery/foreign_key.h"
#include "src/discovery/primary_relation.h"
#include "src/discovery/surrogate_filter.h"
#include "src/ind/session.h"
#include "tests/test_util.h"

namespace spider {
namespace {

SessionReport ProfileWith(const Catalog& catalog, const std::string& approach,
                          bool max_value_pretest = false) {
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = approach;
  options.generator.max_value_pretest = max_value_pretest;
  auto report = session.Run(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

class UniprotIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::UniprotLikeOptions options;
    options.bioentries = 200;
    auto catalog = datagen::MakeUniprotLike(options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = catalog->release();
    report_ = new SessionReport(ProfileWith(*catalog_, "brute-force"));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete catalog_;
  }
  static Catalog* catalog_;
  static SessionReport* report_;
};

Catalog* UniprotIntegrationTest::catalog_ = nullptr;
SessionReport* UniprotIntegrationTest::report_ = nullptr;

TEST_F(UniprotIntegrationTest, AllDetectableForeignKeysAreFound) {
  FkEvaluation eval = EvaluateForeignKeys(*catalog_, report_->run.satisfied);
  EXPECT_TRUE(eval.missed.empty()) << "missed: " << eval.missed.size();
  EXPECT_DOUBLE_EQ(eval.DetectableRecall(), 1.0);
}

TEST_F(UniprotIntegrationTest, EmptyTableForeignKeysAreUndetectable) {
  // The paper: "two foreign keys that are defined on empty tables and
  // obviously cannot be found when regarding the data".
  FkEvaluation eval = EvaluateForeignKeys(*catalog_, report_->run.satisfied);
  EXPECT_EQ(eval.undetectable.size(), 2u);
  for (const ForeignKey& fk : eval.undetectable) {
    EXPECT_EQ(fk.referencing.table, "sg_comment");
  }
}

TEST_F(UniprotIntegrationTest, TransitiveClosureIndsAreFoundButNotErrors) {
  FkEvaluation eval = EvaluateForeignKeys(*catalog_, report_->run.satisfied);
  EXPECT_GE(eval.transitive.size(), 1u);
  // sg_seqfeature.bioentry_id ⊆ sg_bioentry.id via sg_biosequence.
  bool found_chain = false;
  for (const Ind& ind : eval.transitive) {
    if (ind.dependent.ToString() == "sg_seqfeature.bioentry_id" &&
        ind.referenced.ToString() == "sg_bioentry.id") {
      found_chain = true;
    }
  }
  EXPECT_TRUE(found_chain);
}

TEST_F(UniprotIntegrationTest, NoFalsePositives) {
  // The paper: "no false positives were produced" (for UniProt/BioSQL).
  FkEvaluation eval = EvaluateForeignKeys(*catalog_, report_->run.satisfied);
  std::string details;
  for (const Ind& ind : eval.false_positives) details += ind.ToString() + "; ";
  EXPECT_TRUE(eval.false_positives.empty()) << details;
}

TEST_F(UniprotIntegrationTest, PrimaryRelationIsBioentry) {
  auto ranked = testing::RankPrimaryRelations(
      *catalog_, report_->run.satisfied);
  ASSERT_TRUE(ranked.ok());
  ASSERT_GE(ranked->size(), 3u);  // bioentry, reference, ontology
  EXPECT_EQ((*ranked)[0].table, "sg_bioentry");
  EXPECT_GT((*ranked)[0].inbound_ind_count, (*ranked)[1].inbound_ind_count);
}

TEST_F(UniprotIntegrationTest, AllApproachesAgree) {
  auto reference = testing::ToSet(report_->run.satisfied);
  for (const char* approach :
       {"single-pass", "sql-join", "sql-minus", "sql-not-in", "spider-merge",
        "de-marchi", "bell-brockhausen"}) {
    SessionReport report = ProfileWith(*catalog_, approach);
    EXPECT_EQ(testing::ToSet(report.run.satisfied), reference) << approach;
  }
}

TEST_F(UniprotIntegrationTest, MaxValuePretestPreservesResults) {
  SessionReport pruned =
      ProfileWith(*catalog_, "brute-force", /*max_value=*/true);
  EXPECT_LT(pruned.candidates.candidates.size(),
            report_->candidates.candidates.size());
  EXPECT_EQ(testing::ToSet(pruned.run.satisfied),
            testing::ToSet(report_->run.satisfied));
}

TEST(ScopIntegrationTest, ElevenSatisfiedInds) {
  // Paper Table 1: SCOP has 11 satisfied INDs.
  auto catalog = datagen::MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  SessionReport report = ProfileWith(**catalog, "brute-force");
  EXPECT_EQ(report.run.satisfied.size(), 11u);
}

TEST(ScopIntegrationTest, BruteForceAndSinglePassAgree) {
  auto catalog = datagen::MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  SessionReport brute = ProfileWith(**catalog, "brute-force");
  SessionReport single = ProfileWith(**catalog, "single-pass");
  EXPECT_EQ(testing::ToSet(brute.run.satisfied),
            testing::ToSet(single.run.satisfied));
}

class PdbIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::PdbLikeOptions options;
    options.entries = 120;
    options.category_tables = 12;
    auto catalog = datagen::MakePdbLike(options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = catalog->release();
    report_ = new SessionReport(ProfileWith(*catalog_, "brute-force"));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete catalog_;
  }
  static Catalog* catalog_;
  static SessionReport* report_;
};

Catalog* PdbIntegrationTest::catalog_ = nullptr;
SessionReport* PdbIntegrationTest::report_ = nullptr;

TEST_F(PdbIntegrationTest, SurrogateKeysProduceManySpuriousInds) {
  // The paper: "There are INDs between almost all of these ID attributes,
  // leading to the observed 30,000 satisfied INDs."
  SurrogateKeyFilter filter;
  auto split = filter.Filter(*catalog_, report_->run.satisfied);
  ASSERT_TRUE(split.ok());
  EXPECT_GT(split->filtered.size(), split->kept.size());
  EXPECT_GT(split->filtered.size(), 20u);
}

TEST_F(PdbIntegrationTest, PrimaryRelationCandidatesIncludeStruct) {
  auto ranked = testing::RankPrimaryRelations(
      *catalog_, report_->run.satisfied);
  ASSERT_TRUE(ranked.ok());
  ASSERT_GE(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].table, "pdb_struct");
}

TEST_F(PdbIntegrationTest, SurrogateFilterSharpensPrimaryRelation) {
  // After filtering surrogate-to-surrogate INDs, the decision gets clearer
  // (the paper's proposed remedy).
  SurrogateKeyFilter filter;
  auto split = filter.Filter(*catalog_, report_->run.satisfied);
  ASSERT_TRUE(split.ok());
  auto ranked = testing::RankPrimaryRelations(*catalog_, split->kept);
  ASSERT_TRUE(ranked.ok());
  ASSERT_GE(ranked->size(), 1u);
  EXPECT_EQ((*ranked)[0].table, "pdb_struct");
}

TEST_F(PdbIntegrationTest, BlockwiseSinglePassMatchesUnlimited) {
  SpiderSession session(*catalog_);
  RunOptions limited;
  limited.approach = "single-pass";
  limited.max_open_files = 8;
  auto blocked = session.Run(limited);
  ASSERT_TRUE(blocked.ok());
  EXPECT_LE(blocked->run.counters.peak_open_files, 8);
  EXPECT_EQ(testing::ToSet(blocked->run.satisfied),
            testing::ToSet(report_->run.satisfied));
}

TEST(CrossAlgorithmCountersTest, SinglePassReadsNoMoreThanBruteForce) {
  // Figure 5's message: the single-pass algorithm is strictly more I/O
  // efficient than brute force on the same inputs.
  datagen::UniprotLikeOptions options;
  options.bioentries = 120;
  auto catalog = datagen::MakeUniprotLike(options);
  ASSERT_TRUE(catalog.ok());
  SessionReport brute = ProfileWith(**catalog, "brute-force");
  SessionReport single = ProfileWith(**catalog, "single-pass");
  EXPECT_LT(single.run.counters.tuples_read, brute.run.counters.tuples_read);
}

}  // namespace
}  // namespace spider
