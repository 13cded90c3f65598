#include <gtest/gtest.h>

#include "src/datagen/pdb_like.h"
#include "src/datagen/scop_like.h"
#include "src/datagen/uniprot_like.h"
#include "src/datagen/words.h"
#include "src/discovery/accession.h"
#include "src/storage/column_stats.h"
#include "tests/test_util.h"

namespace spider {
namespace {

using datagen::MakePdbCode;
using datagen::MakePdbLike;
using datagen::MakeScopLike;
using datagen::MakeUniprotAccession;
using datagen::MakeUniprotLike;
using datagen::PdbLikeOptions;
using datagen::ScopLikeOptions;
using datagen::UniprotLikeOptions;

TEST(WordsTest, UniprotAccessionShape) {
  std::string acc = MakeUniprotAccession(7);
  EXPECT_EQ(acc.size(), 6u);
  EXPECT_TRUE(acc[0] >= 'A' && acc[0] <= 'Z');
  // Distinct ordinals yield distinct accessions.
  EXPECT_NE(MakeUniprotAccession(1), MakeUniprotAccession(2));
}

TEST(WordsTest, PdbCodeShape) {
  for (int64_t i : {0L, 25L, 26L, 1000L, 99999L}) {
    std::string code = MakePdbCode(i);
    EXPECT_EQ(code.size(), 4u);
    EXPECT_TRUE(code[0] >= '1' && code[0] <= '9');
    for (int j = 1; j < 4; ++j) EXPECT_TRUE(code[j] >= 'a' && code[j] <= 'z');
  }
  EXPECT_NE(MakePdbCode(3), MakePdbCode(4));
}

// ------------------------------------------------------------- UniProt

class UniprotLikeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    UniprotLikeOptions options;
    options.bioentries = 200;
    auto catalog = MakeUniprotLike(options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = catalog->release();
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* UniprotLikeTest::catalog_ = nullptr;

TEST_F(UniprotLikeTest, HasSixteenTables) {
  EXPECT_EQ(catalog_->table_count(), 16);
}

TEST_F(UniprotLikeTest, AttributeCountNearPaper) {
  // The paper's BioSQL schema has 85 attributes; ours is the same shape.
  EXPECT_GE(catalog_->attribute_count(), 80);
  EXPECT_LE(catalog_->attribute_count(), 90);
}

TEST_F(UniprotLikeTest, CommentTableIsEmpty) {
  const Table* comment = catalog_->FindTable("sg_comment");
  ASSERT_NE(comment, nullptr);
  EXPECT_EQ(comment->row_count(), 0);
}

TEST_F(UniprotLikeTest, DeclaredForeignKeysActuallyHoldInData) {
  for (const ForeignKey& fk : catalog_->declared_foreign_keys()) {
    auto dep = catalog_->ResolveAttribute(fk.referencing);
    auto ref = catalog_->ResolveAttribute(fk.referenced);
    ASSERT_TRUE(dep.ok()) << fk.ToString();
    ASSERT_TRUE(ref.ok()) << fk.ToString();
    EXPECT_TRUE(testing::NaiveIncluded(**dep, **ref)) << fk.ToString();
  }
}

TEST_F(UniprotLikeTest, ReferencedFkColumnsAreUnique) {
  for (const ForeignKey& fk : catalog_->declared_foreign_keys()) {
    auto ref = catalog_->ResolveAttribute(fk.referenced);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(ComputeColumnStats(**ref).verified_unique) << fk.ToString();
  }
}

TEST_F(UniprotLikeTest, ExactlyThreeAccessionCandidates) {
  AccessionNumberDetector detector;
  auto candidates = detector.Detect(*catalog_);
  ASSERT_TRUE(candidates.ok());
  std::set<std::string> names;
  for (const auto& c : *candidates) names.insert(c.attribute.ToString());
  EXPECT_EQ(names, (std::set<std::string>{"sg_bioentry.accession",
                                          "sg_ontology.name",
                                          "sg_reference.crc"}));
}

TEST_F(UniprotLikeTest, DeterministicUnderSeed) {
  UniprotLikeOptions options;
  options.bioentries = 50;
  auto a = MakeUniprotLike(options);
  auto b = MakeUniprotLike(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table* ta = (*a)->FindTable("sg_bioentry");
  const Table* tb = (*b)->FindTable("sg_bioentry");
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  ASSERT_EQ(ta->row_count(), tb->row_count());
  for (int64_t r = 0; r < ta->row_count(); ++r) {
    for (int c = 0; c < ta->column_count(); ++c) {
      EXPECT_EQ(ta->column(c).value(r), tb->column(c).value(r));
    }
  }
}

TEST_F(UniprotLikeTest, DifferentSeedsProduceDifferentData) {
  UniprotLikeOptions a;
  a.bioentries = 50;
  UniprotLikeOptions b = a;
  b.seed = 1234;
  auto ca = MakeUniprotLike(a);
  auto cb = MakeUniprotLike(b);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  const Column* na = (*ca)->FindTable("sg_bioentry")->FindColumn("name");
  const Column* nb = (*cb)->FindTable("sg_bioentry")->FindColumn("name");
  bool any_diff = false;
  for (int64_t r = 0; r < na->row_count(); ++r) {
    if (!(na->value(r) == nb->value(r))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(UniprotLikeTest, ScalesWithBioentries) {
  UniprotLikeOptions small;
  small.bioentries = 60;
  auto catalog = MakeUniprotLike(small);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->FindTable("sg_bioentry")->row_count(), 60);
  EXPECT_EQ((*catalog)->FindTable("sg_seqfeature")->row_count(), 120);
}

// ---------------------------------------------------------------- SCOP

TEST(ScopLikeTest, FourTablesTwentyTwoAttributes) {
  auto catalog = MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->table_count(), 4);
  EXPECT_EQ((*catalog)->attribute_count(), 22);
}

TEST(ScopLikeTest, NoDeclaredConstraints) {
  auto catalog = MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  EXPECT_TRUE((*catalog)->declared_foreign_keys().empty());
  for (int t = 0; t < (*catalog)->table_count(); ++t) {
    const Table& table = (*catalog)->table(t);
    for (int c = 0; c < table.column_count(); ++c) {
      EXPECT_FALSE(table.column(c).declared_unique());
    }
  }
}

TEST(ScopLikeTest, DesSunidIsUniqueAndSccsIsNot) {
  auto catalog = MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  const Table* des = (*catalog)->FindTable("scop_des");
  ASSERT_NE(des, nullptr);
  EXPECT_TRUE(ComputeColumnStats(*des->FindColumn("sunid")).verified_unique);
  EXPECT_FALSE(ComputeColumnStats(*des->FindColumn("sccs")).verified_unique);
}

TEST(ScopLikeTest, HieCoversSubsetOfSunids) {
  auto catalog = MakeScopLike();
  ASSERT_TRUE(catalog.ok());
  const Column* hie = (*catalog)->FindTable("scop_hie")->FindColumn("sunid");
  const Column* des = (*catalog)->FindTable("scop_des")->FindColumn("sunid");
  EXPECT_TRUE(testing::NaiveIncluded(*hie, *des));
  EXPECT_FALSE(testing::NaiveIncluded(*des, *hie));
}

// ----------------------------------------------------------------- PDB

TEST(PdbLikeTest, TableAndColumnShape) {
  PdbLikeOptions options;
  options.entries = 100;
  options.category_tables = 10;
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->table_count(), 13);  // struct + exptl + keywords + 10
  EXPECT_TRUE((*catalog)->declared_foreign_keys().empty());
}

TEST(PdbLikeTest, SurrogateIdsAllStartAtOne) {
  PdbLikeOptions options;
  options.entries = 100;
  options.category_tables = 6;
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());
  for (int t = 0; t < (*catalog)->table_count(); ++t) {
    const Table& table = (*catalog)->table(t);
    const Column* id = table.FindColumn("id");
    if (id == nullptr) id = table.FindColumn("entry_key");
    ASSERT_NE(id, nullptr) << table.name();
    EXPECT_EQ(id->value(0).integer(), 1) << table.name();
  }
}

TEST(PdbLikeTest, EntryIdsOfStructAreUniqueAccessionCodes) {
  PdbLikeOptions options;
  options.entries = 100;
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());
  const Column* entry_id =
      (*catalog)->FindTable("pdb_struct")->FindColumn("entry_id");
  ASSERT_NE(entry_id, nullptr);
  ColumnStats stats = ComputeColumnStats(*entry_id);
  EXPECT_TRUE(stats.verified_unique);
  for (const Value& value : entry_id->values()) {
    EXPECT_EQ(value.ToCanonicalString().size(), 4u);
  }
}

TEST(PdbLikeTest, StrictVsSoftenedAccessionCounts) {
  PdbLikeOptions options;
  options.entries = 150;
  options.category_tables = 12;
  options.clean_entry_id_tables = 4;
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());

  AccessionNumberDetector strict;
  auto strict_candidates = strict.Detect(**catalog);
  ASSERT_TRUE(strict_candidates.ok());

  AccessionDetectorOptions softened_options;
  softened_options.min_conforming_fraction = 0.97;
  AccessionNumberDetector softened(softened_options);
  auto softened_candidates = softened.Detect(**catalog);
  ASSERT_TRUE(softened_candidates.ok());

  // The paper: 9 strict candidates, 19 under the softened rule. Shape:
  // softening strictly increases the candidate count.
  EXPECT_GT(softened_candidates->size(), strict_candidates->size());
  // Clean tables (struct, exptl, keywords + 4 clean category tables).
  EXPECT_GE(strict_candidates->size(), 7u);
}

TEST(PdbLikeTest, AtomSiteDominatesWhenEnabled) {
  PdbLikeOptions with;
  with.entries = 50;
  with.category_tables = 4;
  with.include_atom_site = true;
  PdbLikeOptions without = with;
  without.include_atom_site = false;
  auto a = MakePdbLike(with);
  auto b = MakePdbLike(without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->FindTable("pdb_atom_site"), nullptr);
  EXPECT_EQ((*b)->FindTable("pdb_atom_site"), nullptr);
  EXPECT_GT((*a)->ApproximateByteSize(), 2 * (*b)->ApproximateByteSize());
}

TEST(PdbLikeTest, PaperScalePresetMatchesThePapersShape) {
  // Sec. 1.4: the full PDB fraction has 167 tables and ~2,560 attributes.
  // Entries are scaled down here so the shape check stays fast; the schema
  // (table/attribute counts) is independent of the row volume.
  auto options = PdbLikeOptions::PaperScale(/*entries=*/20);
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->table_count(), 167);  // 3 core + 163 category + atoms
  EXPECT_GE((*catalog)->attribute_count(), 2500);
  EXPECT_LE((*catalog)->attribute_count(), 2700);
  EXPECT_NE((*catalog)->FindTable("pdb_atom_site"), nullptr);
  EXPECT_NE((*catalog)->FindTable("pdb_category_159"), nullptr);
}

TEST(PdbLikeTest, DependencyTablesCarryTheDocumentedGroundTruth) {
  PdbLikeOptions options;
  options.entries = 30;
  options.category_tables = 2;
  options.dependency_tables = 2;
  auto catalog = MakePdbLike(options);
  ASSERT_TRUE(catalog.ok());
  for (int k = 0; k < options.dependency_tables; ++k) {
    const Table* table =
        (*catalog)->FindTable("pdb_dep_" + std::to_string(k));
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->column_count(), 5);
    EXPECT_NE(table->FindColumn("entry_id"), nullptr);
    EXPECT_NE(table->FindColumn("ordinal"), nullptr);
    EXPECT_NE(table->FindColumn("group_id"), nullptr);
    EXPECT_NE(table->FindColumn("group_code"), nullptr);
    const Column* noisy = table->FindColumn("noisy_code");
    ASSERT_NE(noisy, nullptr);
    EXPECT_EQ(table->row_count(),
              options.entries * options.dependency_rows_per_entry);
    // Exactly dependency_afd_violations rows carry per-row noise values;
    // they are what puts group_id -> noisy_code at its documented error.
    int64_t noise_rows = 0;
    for (int64_t r = 0; r < table->row_count(); ++r) {
      if (noisy->value(r).string().rfind("nz_", 0) == 0) ++noise_rows;
    }
    EXPECT_EQ(noise_rows, options.dependency_afd_violations);
  }
}

TEST(PdbLikeTest, DependencyTablesAreOffByDefaultAndPerturbNothing) {
  PdbLikeOptions with;
  with.entries = 40;
  with.category_tables = 3;
  with.dependency_tables = 2;
  PdbLikeOptions without = with;
  without.dependency_tables = 0;
  auto a = MakePdbLike(with);
  auto b = MakePdbLike(without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->table_count(), (*b)->table_count() + 2);
  EXPECT_EQ((*b)->FindTable("pdb_dep_0"), nullptr);
  // Enabling the dependency tables must leave every historical table
  // byte-identical (their generation draws no extra randomness).
  for (int t = 0; t < (*b)->table_count(); ++t) {
    const Table& old_table = (*b)->table(t);
    const Table* new_table = (*a)->FindTable(old_table.name());
    ASSERT_NE(new_table, nullptr) << old_table.name();
    ASSERT_EQ(new_table->row_count(), old_table.row_count());
    ASSERT_EQ(new_table->column_count(), old_table.column_count());
    for (int c = 0; c < old_table.column_count(); ++c) {
      for (int64_t r = 0; r < old_table.row_count(); ++r) {
        ASSERT_EQ(new_table->column(c).value(r), old_table.column(c).value(r))
            << old_table.name() << "." << old_table.column(c).name();
      }
    }
  }
}

TEST(PdbLikeTest, Deterministic) {
  PdbLikeOptions options;
  options.entries = 40;
  auto a = MakePdbLike(options);
  auto b = MakePdbLike(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table* ta = (*a)->FindTable("pdb_struct");
  const Table* tb = (*b)->FindTable("pdb_struct");
  for (int64_t r = 0; r < ta->row_count(); ++r) {
    EXPECT_EQ(ta->column(1).value(r), tb->column(1).value(r));
  }
}

}  // namespace
}  // namespace spider
