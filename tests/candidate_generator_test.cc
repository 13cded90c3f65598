#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/ind/candidate_generator.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

bool HasCandidate(const CandidateSet& set, const AttributeRef& dep,
                  const AttributeRef& ref) {
  return std::find(set.candidates.begin(), set.candidates.end(),
                   IndCandidate{dep, ref}) != set.candidates.end();
}

TEST(CandidateGeneratorTest, PairsDependentWithUniqueReferenced) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "dep", {"a", "a", "b"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b", "c"},
                           /*unique=*/true);
  CandidateGenerator generator;
  auto set = generator.Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
  // dep is not unique, so nothing may reference it.
  for (const IndCandidate& c : set->candidates) {
    EXPECT_FALSE(c.referenced == AttributeRef({"t1", "dep"})) << c.ToString();
  }
}

TEST(CandidateGeneratorTest, ExcludesSelfPairs) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t", "u", {"a", "b"}, true);
  auto set = CandidateGenerator().Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t", "u"}, {"t", "u"}));
}

TEST(CandidateGeneratorTest, ExcludesEmptyColumns) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "empty", {"", ""});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b"}, true);
  auto set = CandidateGenerator().Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t1", "empty"}, {"t2", "ref"}));
}

TEST(CandidateGeneratorTest, ExcludesLobDependents) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("t");
  ASSERT_TRUE(t->AddColumn("blob", TypeId::kLob).ok());
  ASSERT_TRUE(t->AppendRow({Value::String("a")}).ok());
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b"}, true);
  auto set = CandidateGenerator().Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t", "blob"}, {"t2", "ref"}));
}

TEST(CandidateGeneratorTest, VerifiedUniquenessEnablesReferenced) {
  Catalog catalog;
  // Not declared unique, but values are distinct.
  testing::AddStringColumn(&catalog, "t1", "dep", {"a"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b"}, false);

  CandidateGeneratorOptions verified;
  verified.uniqueness_source = UniquenessSource::kVerified;
  auto set = CandidateGenerator(verified).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));

  CandidateGeneratorOptions declared;
  declared.uniqueness_source = UniquenessSource::kDeclared;
  auto none = CandidateGenerator(declared).Generate(catalog);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->candidates.empty());
}

TEST(CandidateGeneratorTest, DeclaredUniqueWithDuplicateDataStillReferenced) {
  // A declared-unique column with duplicates (constraint not enforced by
  // our storage) is accepted under kDeclared and kEither.
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "dep", {"a"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "a"}, true);
  CandidateGeneratorOptions options;
  options.uniqueness_source = UniquenessSource::kDeclared;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
}

TEST(CandidateGeneratorTest, CardinalityPretestPrunes) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "wide", {"a", "b", "c", "d"});
  testing::AddStringColumn(&catalog, "t2", "narrow", {"a", "b"}, true);
  CandidateGeneratorOptions options;  // cardinality pretest on by default
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t1", "wide"}, {"t2", "narrow"}));
  EXPECT_GE(set->pruned_by_cardinality, 1);
}

TEST(CandidateGeneratorTest, CardinalityPretestCanBeDisabled) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "wide", {"a", "b", "c", "d"});
  testing::AddStringColumn(&catalog, "t2", "narrow", {"a", "b"}, true);
  CandidateGeneratorOptions options;
  options.cardinality_pretest = false;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "wide"}, {"t2", "narrow"}));
}

TEST(CandidateGeneratorTest, MaxValuePretest) {
  Catalog catalog;
  // max(dep)="z" > max(ref)="m": cannot be included.
  testing::AddStringColumn(&catalog, "t1", "dep", {"a", "z"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b", "m"}, true);
  CandidateGeneratorOptions options;
  options.max_value_pretest = true;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
  EXPECT_EQ(set->pruned_by_max_value, 1);
}

TEST(CandidateGeneratorTest, MaxValuePretestKeepsViableCandidates) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "dep", {"a", "b"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b", "m"}, true);
  CandidateGeneratorOptions options;
  options.max_value_pretest = true;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
}

TEST(CandidateGeneratorTest, MinValuePretest) {
  Catalog catalog;
  // min(dep)="a" < min(ref)="b": dep has a value below every ref value.
  testing::AddStringColumn(&catalog, "t1", "dep", {"a", "c"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"b", "c", "d"}, true);
  CandidateGeneratorOptions options;
  options.min_value_pretest = true;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
  EXPECT_EQ(set->pruned_by_min_value, 1);
}

TEST(CandidateGeneratorTest, TypePretestOffByDefault) {
  Catalog catalog;
  Table* t1 = *catalog.CreateTable("t1");
  ASSERT_TRUE(t1->AddColumn("n", TypeId::kInteger).ok());
  ASSERT_TRUE(t1->AppendRow({Value::Integer(1)}).ok());
  testing::AddStringColumn(&catalog, "t2", "s", {"1", "2"}, true);

  auto default_set = CandidateGenerator().Generate(catalog);
  ASSERT_TRUE(default_set.ok());
  EXPECT_TRUE(HasCandidate(*default_set, {"t1", "n"}, {"t2", "s"}));

  CandidateGeneratorOptions options;
  options.type_pretest = true;
  auto typed_set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(typed_set.ok());
  EXPECT_FALSE(HasCandidate(*typed_set, {"t1", "n"}, {"t2", "s"}));
  // t1.n is verified unique, so both directions are raw pairs and both are
  // type-pruned.
  EXPECT_EQ(typed_set->pruned_by_type, 2);
}

TEST(CandidateGeneratorTest, SamplingPretestRefutesObviousMismatches) {
  Catalog catalog;
  std::vector<std::string> numbers;
  for (int i = 0; i < 50; ++i) numbers.push_back(std::to_string(i));
  std::vector<std::string> words;
  for (int i = 0; i < 60; ++i) words.push_back("word" + std::to_string(i));
  testing::AddStringColumn(&catalog, "t1", "numbers", numbers);
  testing::AddStringColumn(&catalog, "t2", "words", words, true);

  CandidateGeneratorOptions options;
  options.sampling_pretest = true;
  options.sample_size = 4;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(HasCandidate(*set, {"t1", "numbers"}, {"t2", "words"}));
  EXPECT_GE(set->pruned_by_sampling, 1);
}

TEST(CandidateGeneratorTest, SamplingPretestNeverPrunesTrueInds) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "dep", {"a", "b", "a"});
  testing::AddStringColumn(&catalog, "t2", "ref", {"a", "b", "c"}, true);
  CandidateGeneratorOptions options;
  options.sampling_pretest = true;
  options.sample_size = 32;
  auto set = CandidateGenerator(options).Generate(catalog);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(HasCandidate(*set, {"t1", "dep"}, {"t2", "ref"}));
}

// The sampling pretest draws each dependent sample from the column's
// cursor, so an in-memory catalog and a disk workspace of the same data
// keep and prune the same candidates.
TEST(CandidateGeneratorTest, SamplingPretestAgreesAcrossBackends) {
  datagen::PdbLikeOptions shape;
  shape.entries = 300;
  shape.category_tables = 5;
  MemoryCatalogSink memory_sink("pdb_like");
  ASSERT_TRUE(datagen::WritePdbLike(shape, memory_sink).ok());
  auto memory = memory_sink.Finish();
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto dir = TempDir::Make("spider-sampling-parity");
  ASSERT_TRUE(dir.ok());
  auto writer = DiskCatalogWriter::Create((*dir)->path() / "ws", "pdb_like");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(datagen::WritePdbLike(shape, **writer).ok());
  auto disk = (*writer)->Finish();
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  CandidateGeneratorOptions options;
  options.sampling_pretest = true;
  const CandidateGenerator generator(options);
  auto from_memory = generator.GenerateGraph(**memory);
  ASSERT_TRUE(from_memory.ok()) << from_memory.status().ToString();
  auto from_disk = generator.GenerateGraph(**disk);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  EXPECT_GT(from_memory->pruned_by_sampling, 0);
  EXPECT_EQ(from_memory->pruned_by_sampling, from_disk->pruned_by_sampling);
  EXPECT_EQ(from_memory->candidates.size(), from_disk->candidates.size());
  EXPECT_TRUE(from_memory->candidates == from_disk->candidates);
}

TEST(CandidateGeneratorTest, CountsRawPairsAndStats) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "a", {"x"});
  testing::AddStringColumn(&catalog, "t2", "b", {"x", "y"}, true);
  testing::AddStringColumn(&catalog, "t3", "c", {"x", "y", "z"}, true);
  auto set = CandidateGenerator().Generate(catalog);
  ASSERT_TRUE(set.ok());
  // Dependents: a, b, c. Referenced: all three (a is verified unique).
  // Raw pairs minus self: 3*3 - 3 = 6.
  EXPECT_EQ(set->raw_pair_count, 6);
  EXPECT_EQ(set->stats.size(), 3u);
  // b->a (2>1), c->a (3>1), c->b (3>2) pruned by cardinality.
  EXPECT_EQ(set->pruned_by_cardinality, 3);
  EXPECT_EQ(set->candidates.size(), 3u);
}

// Generate() is GenerateGraph() by name: the same candidates in the same
// order, the same statistics and pretest counts, under every pretest.
TEST(CandidateGeneratorTest, NamedFormIsTheGraphMaterialized) {
  datagen::PdbLikeOptions shape;
  shape.entries = 300;
  shape.category_tables = 5;
  auto catalog = datagen::MakePdbLike(shape);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  CandidateGeneratorOptions pretests;
  pretests.max_value_pretest = true;
  pretests.min_value_pretest = true;
  pretests.sampling_pretest = true;
  for (const CandidateGeneratorOptions& options :
       {CandidateGeneratorOptions{}, pretests}) {
    const CandidateGenerator generator(options);
    auto graph = generator.GenerateGraph(**catalog);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    auto named = generator.Generate(**catalog);
    ASSERT_TRUE(named.ok()) << named.status().ToString();
    ASSERT_FALSE(graph->candidates.empty());

    EXPECT_EQ(named->candidates,
              NamePairs<IndCandidate>(graph->attributes, graph->candidates));
    ASSERT_EQ(graph->stats.size(), graph->attributes.size());
    std::map<AttributeRef, std::string> stats;
    for (size_t id = 0; id < graph->attributes.size(); ++id) {
      stats.emplace(graph->attributes[id], graph->stats[id].ToString());
    }
    std::map<AttributeRef, std::string> named_stats;
    for (const auto& [attribute, column_stats] : named->stats) {
      named_stats.emplace(attribute, column_stats.ToString());
    }
    EXPECT_EQ(named_stats, stats);
    EXPECT_EQ(named->raw_pair_count, graph->raw_pair_count);
    EXPECT_EQ(named->total_pruned(), graph->total_pruned());
    EXPECT_EQ(named->pruned_by_sampling, graph->pruned_by_sampling);
    // Dependent-major in catalog order: strictly ascending id pairs.
    EXPECT_TRUE(std::adjacent_find(graph->candidates.begin(),
                                   graph->candidates.end(),
                                   [](const AttributePair& a,
                                      const AttributePair& b) {
                                     return !(a < b);
                                   }) == graph->candidates.end());
  }
}

}  // namespace
}  // namespace spider
