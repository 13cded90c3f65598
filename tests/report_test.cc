#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/common/json_reader.h"
#include "src/datagen/uniprot_like.h"
#include "src/discovery/report.h"
#include "src/ind/report_json.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class SchemaReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::UniprotLikeOptions options;
    options.bioentries = 120;
    auto catalog = datagen::MakeUniprotLike(options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = catalog->release();
    auto report = BuildSchemaReport(*catalog_);
    ASSERT_TRUE(report.ok());
    report_ = new SchemaReport(std::move(report).value());
  }
  static void TearDownTestSuite() {
    delete report_;
    delete catalog_;
  }
  static Catalog* catalog_;
  static SchemaReport* report_;
};

Catalog* SchemaReportTest::catalog_ = nullptr;
SchemaReport* SchemaReportTest::report_ = nullptr;

TEST_F(SchemaReportTest, FindsKeyCandidates) {
  EXPECT_FALSE(report_->key_candidates.empty());
  bool found_bioentry_id = false;
  for (const KeyCandidate& key : report_->key_candidates) {
    if (key.attribute.ToString() == "sg_bioentry.id") {
      found_bioentry_id = true;
      EXPECT_EQ(key.distinct_count, 120);
    }
  }
  EXPECT_TRUE(found_bioentry_id);
}

TEST_F(SchemaReportTest, ProfileRanAndFoundInds) {
  EXPECT_TRUE(report_->profile.run.finished);
  EXPECT_GE(report_->profile.run.satisfied.size(), 19u);
}

TEST_F(SchemaReportTest, FkGuessesCoverDeclaredKeys) {
  // Every detectable declared FK should appear among the guesses (the
  // guesser picks the tightest superset, which for this schema is the
  // declared target).
  EXPECT_TRUE(report_->fk_evaluation.missed.empty());
  EXPECT_GE(report_->fk_guesses.size(), 15u);
}

TEST_F(SchemaReportTest, EvaluationMatchesGold) {
  EXPECT_EQ(report_->fk_evaluation.false_positives.size(), 0u);
  EXPECT_EQ(report_->fk_evaluation.undetectable.size(), 2u);
  EXPECT_DOUBLE_EQ(report_->fk_evaluation.DetectableRecall(), 1.0);
}

TEST_F(SchemaReportTest, PrimaryRelationIsBioentry) {
  ASSERT_FALSE(report_->primary_relations.empty());
  EXPECT_EQ(report_->primary_relations.front().table, "sg_bioentry");
}

TEST_F(SchemaReportTest, TextRenderingMentionsEverySection) {
  const std::string text = report_->ToString();
  EXPECT_NE(text.find("primary-key candidates"), std::string::npos);
  EXPECT_NE(text.find("IND discovery"), std::string::npos);
  EXPECT_NE(text.find("foreign-key guesses"), std::string::npos);
  EXPECT_NE(text.find("gold-standard evaluation"), std::string::npos);
  EXPECT_NE(text.find("accession-number candidates"), std::string::npos);
  EXPECT_NE(text.find("=> primary relation: sg_bioentry"), std::string::npos);
}

TEST(SchemaReportOptionsTest, SurrogateFilterCanBeDisabled) {
  Catalog catalog;
  // Two surrogate ranges with an IND between them.
  Table* a = *catalog.CreateTable("a");
  ASSERT_TRUE(a->AddColumn("id", TypeId::kInteger).ok());
  Table* b = *catalog.CreateTable("b");
  ASSERT_TRUE(b->AddColumn("id", TypeId::kInteger).ok());
  for (int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(a->AppendRow({Value::Integer(i)}).ok());
    ASSERT_TRUE(b->AppendRow({Value::Integer(i)}).ok());
  }
  // b gets more rows so a.id ⊆ b.id strictly.
  for (int64_t i = 21; i <= 30; ++i) {
    ASSERT_TRUE(b->AppendRow({Value::Integer(i)}).ok());
  }

  SchemaReportOptions with_filter;
  auto filtered = BuildSchemaReport(catalog, with_filter);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered->surrogate_filtered.empty());
  EXPECT_TRUE(filtered->fk_guesses.empty());

  SchemaReportOptions without_filter;
  without_filter.filter_surrogates = false;
  auto unfiltered = BuildSchemaReport(catalog, without_filter);
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_TRUE(unfiltered->surrogate_filtered.empty());
  EXPECT_FALSE(unfiltered->fk_guesses.empty());
}

TEST(SchemaReportOptionsTest, CompositeKeysAcrossTables) {
  // "zeta" has a single-column key (id) plus the composite key (x, y);
  // "alpha" has no single-column key at all, only (entry, ordinal).
  Catalog catalog;
  auto add_table = [&catalog](const std::string& name,
                              const std::vector<std::string>& columns,
                              const std::vector<std::vector<std::string>>&
                                  rows) {
    Table* table = *catalog.CreateTable(name);
    for (const std::string& column : columns) {
      ASSERT_TRUE(table->AddColumn(column, TypeId::kString).ok());
    }
    for (const std::vector<std::string>& row : rows) {
      std::vector<Value> values;
      for (const std::string& value : row) {
        values.push_back(Value::String(value));
      }
      ASSERT_TRUE(table->AppendRow(std::move(values)).ok());
    }
  };
  add_table("zeta", {"id", "x", "y"},
            {{"k1", "a", "1"}, {"k2", "a", "2"}, {"k3", "b", "1"},
             {"k4", "b", "2"}});
  add_table("alpha", {"entry", "ordinal", "note"},
            {{"e1", "1", "n"}, {"e1", "2", "n"}, {"e2", "1", "n"},
             {"e2", "2", "n"}});

  auto report = BuildSchemaReport(catalog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::set<Ucc> keys(report->composite_keys.begin(),
                           report->composite_keys.end());
  EXPECT_EQ(keys, (std::set<Ucc>{Ucc{"alpha", {"entry", "ordinal"}},
                                 Ucc{"zeta", {"x", "y"}}}));
  EXPECT_EQ(report->composite_keys.size(), keys.size());
}

TEST(SchemaReportOptionsTest, EmptyCatalog) {
  Catalog catalog;
  auto report = BuildSchemaReport(catalog);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->key_candidates.empty());
  EXPECT_TRUE(report->primary_relations.empty());
  // The rendering must not crash on empty sections.
  EXPECT_FALSE(report->ToString().empty());
}

// The IND report JSON carries the unary work counters beside tuples_read,
// each equal to the run's RunCounters field.
TEST(IndReportJsonTest, CountersEqualRunCounters) {
  datagen::UniprotLikeOptions shape;
  shape.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(shape);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  for (const char* approach : {"spider-merge", "single-pass", "de-marchi"}) {
    for (int threads : {1, 4}) {
      SpiderSession session(**catalog);
      RunOptions options;
      options.approach = approach;
      options.threads = threads;
      auto report = session.Run(options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      auto json = ParseJson(SessionReportToJson(*report, ReportJsonContext{}));
      ASSERT_TRUE(json.ok()) << json.status().ToString();
      const RunCounters& counters = report->run.counters;
      EXPECT_GT(counters.comparisons, 0) << approach;
      EXPECT_GT(counters.candidates_tested, 0) << approach;
      const std::pair<const char*, int64_t> expected[] = {
          {"tuples_read", counters.tuples_read},
          {"comparisons", counters.comparisons},
          {"blocks_skipped", counters.blocks_skipped},
          {"files_opened", counters.files_opened},
          {"peak_open_files", counters.peak_open_files},
          {"candidates_tested", counters.candidates_tested},
          {"sets_extracted", counters.sets_extracted},
          {"sets_reused", counters.sets_reused},
      };
      for (const auto& [key, value] : expected) {
        const JsonValue* member = json->Find(key);
        ASSERT_NE(member, nullptr) << key;
        EXPECT_EQ(member->raw_number, std::to_string(value))
            << approach << " threads=" << threads << " " << key;
      }
    }
  }
}

}  // namespace
}  // namespace spider
