#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/json_reader.h"
#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/datagen/uniprot_like.h"
#include "src/discovery/report.h"
#include "src/ind/report_json.h"
#include "src/storage/disk_store.h"
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
    SpiderSession session(*catalog_);
    auto report = BuildSchemaReport(session);
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
  SpiderSession filtered_session(catalog);
  auto filtered = BuildSchemaReport(filtered_session, with_filter);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered->surrogate_filtered.empty());
  EXPECT_TRUE(filtered->fk_guesses.empty());

  SchemaReportOptions without_filter;
  without_filter.filter_surrogates = false;
  SpiderSession unfiltered_session(catalog);
  auto unfiltered = BuildSchemaReport(unfiltered_session, without_filter);
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

  SpiderSession session(catalog);
  auto report = BuildSchemaReport(session);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::set<Ucc> keys(report->composite_keys.begin(),
                           report->composite_keys.end());
  EXPECT_EQ(keys, (std::set<Ucc>{Ucc{"alpha", {"entry", "ordinal"}},
                                 Ucc{"zeta", {"x", "y"}}}));
  EXPECT_EQ(report->composite_keys.size(), keys.size());
}

TEST(SchemaReportOptionsTest, EmptyCatalog) {
  Catalog catalog;
  SpiderSession session(catalog);
  auto report = BuildSchemaReport(session);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->key_candidates.empty());
  EXPECT_TRUE(report->primary_relations.empty());
  // The rendering must not crash on empty sections.
  EXPECT_FALSE(report->ToString().empty());
}

// What a report concluded, one line per finding: key candidates with their
// distinct counts, satisfied INDs, foreign-key guesses, accession-number
// candidates and the primary-relation ranking.
std::vector<std::string> Conclusions(const SchemaReport& report) {
  std::vector<std::string> out;
  for (const KeyCandidate& key : report.key_candidates) {
    out.push_back("key " + key.attribute.ToString() + " " +
                  std::to_string(key.distinct_count));
  }
  for (const Ind& ind : report.profile.run.satisfied) {
    out.push_back("ind " + ind.ToString());
  }
  for (const ForeignKey& fk : report.fk_guesses) {
    out.push_back("fk " + fk.ToString());
  }
  for (const AccessionCandidate& accession : report.accession_candidates) {
    out.push_back("accession " + accession.attribute.ToString());
  }
  for (const PrimaryRelationCandidate& relation : report.primary_relations) {
    out.push_back("primary " + relation.table + " " +
                  std::to_string(relation.inbound_ind_count));
  }
  return out;
}

// The report on a disk workspace runs on a session opened the way
// `spider profile <workspace>` opens it, profiling in place: a second fresh
// session answers every IND candidate from the profile the first sealed,
// and both conclude what an in-memory catalog of the same data does.
TEST(SchemaReportWorkspaceTest, SecondSessionReusesEveryVerdict) {
  datagen::PdbLikeOptions shape;
  shape.entries = 60;
  shape.category_tables = 4;
  MemoryCatalogSink memory_sink("pdb_like");
  ASSERT_TRUE(datagen::WritePdbLike(shape, memory_sink).ok());
  auto memory = memory_sink.Finish();
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto dir = TempDir::Make("spider-report-workspace");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path workspace = (*dir)->path() / "ws";
  {
    auto writer = DiskCatalogWriter::Create(workspace, "pdb_like");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(datagen::WritePdbLike(shape, **writer).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto discover = [&workspace]() -> Result<SchemaReport> {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            OpenDiskCatalog(workspace));
    SessionOptions options;
    options.work_dir = workspace.string();
    options.persist_profile = true;
    SpiderSession session(std::move(catalog), options);
    return BuildSchemaReport(session);
  };

  auto cold = discover();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = discover();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  SpiderSession memory_session(**memory);
  auto reference = BuildSchemaReport(memory_session);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const int64_t candidates =
      static_cast<int64_t>(warm->profile.candidates.candidates.size());
  EXPECT_GT(candidates, 0);
  EXPECT_EQ(cold->profile.verdicts_reused, 0);
  EXPECT_EQ(warm->profile.verdicts_reused, candidates);
  EXPECT_EQ(warm->profile.candidates_revalidated, 0);
  EXPECT_FALSE(warm->key_candidates.empty());
  EXPECT_FALSE(warm->fk_guesses.empty());
  EXPECT_FALSE(warm->accession_candidates.empty());
  EXPECT_FALSE(warm->primary_relations.empty());
  EXPECT_EQ(Conclusions(*warm), Conclusions(*cold));
  EXPECT_EQ(Conclusions(*warm), Conclusions(*reference));
}

// The report's IND run is an IND run: an approach of another kind fails it.
TEST(SchemaReportOptionsTest, OtherKindIsRejected) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "c", {"a", "b"});
  SpiderSession session(catalog);
  SchemaReportOptions options;
  options.ind.approach = "ucc-levelwise";
  EXPECT_TRUE(BuildSchemaReport(session, options).status().IsInvalidArgument());
}

// The IND report JSON carries every RunCounters field, each equal to the
// run's value. bell-brockhausen prunes by pretest and sql-join scans with
// the engine, so each of those counters is nonzero in some run.
TEST(IndReportJsonTest, CountersEqualRunCounters) {
  datagen::UniprotLikeOptions shape;
  shape.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(shape);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  int64_t pruned = 0;
  int64_t engine_rows = 0;
  for (const char* approach : {"spider-merge", "single-pass", "de-marchi",
                               "bell-brockhausen", "sql-join"}) {
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
      pruned += counters.candidates_pretest_pruned;
      engine_rows += counters.engine_rows_scanned;
      const std::pair<const char*, int64_t> expected[] = {
          {"tuples_read", counters.tuples_read},
          {"comparisons", counters.comparisons},
          {"blocks_skipped", counters.blocks_skipped},
          {"files_opened", counters.files_opened},
          {"peak_open_files", counters.peak_open_files},
          {"candidates_tested", counters.candidates_tested},
          {"candidates_pretest_pruned", counters.candidates_pretest_pruned},
          {"engine_rows_scanned", counters.engine_rows_scanned},
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
  EXPECT_GT(pruned, 0);
  EXPECT_GT(engine_rows, 0);
}

// A UCC report carries the counters an IND report does. A second session
// on a persisted workspace reuses the sets the first one recorded, and its
// JSON says so with the numbers its text report prints.
TEST(DependencyReportJsonTest, SecondPersistedUccRunReportsReusedSets) {
  datagen::PdbLikeOptions shape;
  shape.entries = 40;
  shape.category_tables = 3;
  auto dir = TempDir::Make("spider-ucc-report");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path workspace = (*dir)->path() / "ws";
  {
    auto writer = DiskCatalogWriter::Create(workspace, "pdb_like");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(datagen::WritePdbLike(shape, **writer).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto profile = [&workspace]() -> Result<SessionReport> {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            OpenDiskCatalog(workspace));
    SessionOptions options;
    options.work_dir = workspace.string();
    options.persist_profile = true;
    SpiderSession session(std::move(catalog), options);
    RunOptions run;
    run.approach = "ucc-levelwise";
    return session.Run(run);
  };
  ASSERT_TRUE(profile().ok());
  auto warm = profile();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(warm->dependency.counters.sets_reused, 0);

  // The text report's "counters:" line as key -> digits.
  const std::string text = warm->ToString();
  const size_t line = text.find("counters:");
  ASSERT_NE(line, std::string::npos) << text;
  std::map<std::string, std::string> printed;
  std::istringstream tokens(text.substr(line, text.find('\n', line) - line));
  for (std::string token; tokens >> token;) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    std::string digits = token.substr(eq + 1);
    digits.erase(std::remove(digits.begin(), digits.end(), ','), digits.end());
    printed[token.substr(0, eq)] = digits;
  }

  auto json = ParseJson(SessionReportToJson(*warm, ReportJsonContext{}));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // JSON key -> the text report's name for the same counter.
  const std::pair<const char*, const char*> keys[] = {
      {"tuples_read", "tuples_read"},
      {"comparisons", "comparisons"},
      {"blocks_skipped", "blocks_skipped"},
      {"files_opened", "files_opened"},
      {"peak_open_files", "peak_open_files"},
      {"candidates_tested", "candidates_tested"},
      {"candidates_pretest_pruned", "pretest_pruned"},
      {"engine_rows_scanned", "engine_rows"},
      {"sets_extracted", "sets_extracted"},
      {"sets_reused", "sets_reused"},
  };
  for (const auto& [key, text_key] : keys) {
    const JsonValue* member = json->Find(key);
    ASSERT_NE(member, nullptr) << key;
    ASSERT_TRUE(printed.contains(text_key)) << text_key;
    EXPECT_EQ(member->raw_number, printed[text_key]) << key;
  }
  const JsonValue* reused = json->Find("profile_reused");
  ASSERT_NE(reused, nullptr);
  EXPECT_TRUE(reused->is_bool() && reused->boolean);
}

}  // namespace
}  // namespace spider
