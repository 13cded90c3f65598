#include <gtest/gtest.h>

#include "src/datagen/uniprot_like.h"
#include "src/discovery/graph_export.h"
#include "tests/test_util.h"

namespace spider {
namespace {

TEST(DotEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(DotEscape("plain"), "plain");
  EXPECT_EQ(DotEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(DotEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(DotEscape("line\nbreak"), "line\\nbreak");
}

TEST(GraphExportTest, EmptyReportIsAValidDigraph) {
  SchemaReport report;
  std::string dot = ExportSchemaDot(report);
  EXPECT_NE(dot.find("digraph \"schema\" {"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(GraphExportTest, RendersForeignKeyEdges) {
  SchemaReport report;
  report.fk_guesses.push_back(ForeignKey{{"orders", "cid"}, {"customers", "id"}});
  std::string dot = ExportSchemaDot(report);
  EXPECT_NE(dot.find("\"orders\" -> \"customers\""), std::string::npos);
  EXPECT_NE(dot.find("cid -> id"), std::string::npos);
}

TEST(GraphExportTest, HighlightsPrimaryRelation) {
  SchemaReport report;
  report.fk_guesses.push_back(ForeignKey{{"child", "fk"}, {"main", "id"}});
  PrimaryRelationCandidate primary;
  primary.table = "main";
  report.primary_relations.push_back(primary);
  std::string dot = ExportSchemaDot(report);
  EXPECT_NE(dot.find("fillcolor=lightgoldenrod"), std::string::npos);
  EXPECT_NE(dot.find("primary relation"), std::string::npos);
}

TEST(GraphExportTest, FilteredEdgesOnlyWhenRequested) {
  SchemaReport report;
  report.surrogate_filtered.push_back(Ind{{"a", "id"}, {"b", "id"}});
  std::string without = ExportSchemaDot(report);
  EXPECT_EQ(without.find("dashed"), std::string::npos);

  GraphExportOptions options;
  options.include_filtered = true;
  std::string with = ExportSchemaDot(report, options);
  EXPECT_NE(with.find("style=dashed"), std::string::npos);
  EXPECT_NE(with.find("\"a\" -> \"b\""), std::string::npos);
}

TEST(GraphExportTest, EndToEndOnGeneratedDatabase) {
  datagen::UniprotLikeOptions options;
  options.bioentries = 80;
  auto catalog = datagen::MakeUniprotLike(options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  auto report = BuildSchemaReport(session);
  ASSERT_TRUE(report.ok());
  std::string dot = ExportSchemaDot(*report);
  // Every guessed FK's tables appear as nodes and an edge exists.
  EXPECT_NE(dot.find("\"sg_biosequence\" -> \"sg_bioentry\""),
            std::string::npos);
  // The primary relation is highlighted.
  EXPECT_NE(dot.find("lightgoldenrod"), std::string::npos);
  // Balanced braces (one digraph block).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
}

}  // namespace
}  // namespace spider
