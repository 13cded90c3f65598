// Edge-case suite for CompositeSetVerifier's g3' error and the partial
// n-ary threshold built on it: empty dependent sets, MATCH SIMPLE NULL
// handling of composite rows, and candidates whose error sits exactly at
// or just above the configured threshold.

#include "src/ind/composite_verify.h"

#include <gtest/gtest.h>

#include "src/ind/nary.h"
#include "src/storage/catalog.h"

namespace spider {
namespace {

// Builds a two-column string table from (a, b) rows (nullptr = NULL).
Table* AddPairTable(Catalog* catalog, const std::string& name,
                    const std::vector<std::pair<const char*, const char*>>&
                        rows) {
  auto created = catalog->CreateTable(name);
  EXPECT_TRUE(created.ok());
  Table* table = *created;
  EXPECT_TRUE(table->AddColumn("a", TypeId::kString).ok());
  EXPECT_TRUE(table->AddColumn("b", TypeId::kString).ok());
  for (const auto& [a, b] : rows) {
    EXPECT_TRUE(
        table
            ->AppendRow({a == nullptr ? Value::Null() : Value::String(a),
                         b == nullptr ? Value::Null() : Value::String(b)})
            .ok());
  }
  return table;
}

NaryInd PairCandidate(const std::string& dep, const std::string& ref) {
  return NaryInd{{{dep, "a"}, {dep, "b"}}, {{ref, "a"}, {ref, "b"}}};
}

TEST(CompositeVerifyTest, EmptyDependentSetIsVacuouslySatisfied) {
  // A dependent table with no rows has no tuples to violate anything:
  // included, error 0 (the g3' denominator is empty — no division blowup).
  Catalog catalog;
  AddPairTable(&catalog, "dep", {});
  AddPairTable(&catalog, "ref", {{"x", "1"}});
  CompositeSetVerifier verifier;
  RunCounters counters;
  auto included = verifier.VerifyIncluded(catalog, PairCandidate("dep", "ref"),
                                          &counters, /*early_stop=*/true);
  ASSERT_TRUE(included.ok());
  EXPECT_TRUE(*included);
  auto error =
      verifier.Error(catalog, PairCandidate("dep", "ref"), &counters);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(*error, 0.0);
}

TEST(CompositeVerifyTest, AllNullCompositeRowsAreVacuouslySatisfied) {
  // MATCH SIMPLE: a tuple with any NULL component is dropped before the
  // merge. When every dependent row has one, the set is empty — satisfied
  // even against a referenced side that shares no values at all.
  Catalog catalog;
  AddPairTable(&catalog, "dep",
               {{nullptr, "1"}, {"x", nullptr}, {nullptr, nullptr}});
  AddPairTable(&catalog, "ref", {{"unrelated", "9"}});
  CompositeSetVerifier verifier;
  auto included = verifier.VerifyIncluded(catalog, PairCandidate("dep", "ref"),
                                          nullptr, /*early_stop=*/false);
  ASSERT_TRUE(included.ok());
  EXPECT_TRUE(*included);
  auto error = verifier.Error(catalog, PairCandidate("dep", "ref"), nullptr);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(*error, 0.0);
}

TEST(CompositeVerifyTest, NullComponentsNeverCountAsViolations) {
  // Mixed rows: the NULL-component tuples vanish, the complete ones are
  // judged — one of two distinct complete tuples misses, error 1/2.
  Catalog catalog;
  AddPairTable(&catalog, "dep",
               {{"x", "1"}, {"miss", "2"}, {nullptr, "2"}, {"miss", nullptr}});
  AddPairTable(&catalog, "ref", {{"x", "1"}});
  CompositeSetVerifier verifier;
  auto included = verifier.VerifyIncluded(catalog, PairCandidate("dep", "ref"),
                                          nullptr, /*early_stop=*/true);
  ASSERT_TRUE(included.ok());
  EXPECT_FALSE(*included);
  auto error = verifier.Error(catalog, PairCandidate("dep", "ref"), nullptr);
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.5);
}

TEST(CompositeVerifyTest, ErrorCountsDistinctTuplesNotRows) {
  // g3' is defined over the sorted-distinct set: repeating a missing
  // tuple many times must not inflate the error.
  Catalog catalog;
  AddPairTable(&catalog, "dep",
               {{"a", "1"},
                {"b", "2"},
                {"c", "3"},
                {"d", "4"},
                {"d", "4"},
                {"d", "4"}});
  AddPairTable(&catalog, "ref", {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  CompositeSetVerifier verifier;
  auto error = verifier.Error(catalog, PairCandidate("dep", "ref"), nullptr);
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.25);  // 1 of 4 distinct tuples missing
}

TEST(CompositeVerifyTest, ThresholdAcceptsErrorExactlyAtAndRejectsAbove) {
  // The partial n-ary contract is error <= threshold, end to end through
  // the levelwise expansion: a candidate sitting exactly on the threshold
  // is reported; nudge the threshold below the error and it is not.
  Catalog catalog;
  AddPairTable(&catalog, "dep",
               {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}});
  // Unary INDs both hold (ref.a covers a-d, ref.b covers 1-4); the
  // composite tuple (d, 4) is missing, so the binary error is 1/4.
  AddPairTable(&catalog, "ref",
               {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "9"}, {"e", "4"}});
  const std::vector<Ind> unary = {{{"dep", "a"}, {"ref", "a"}},
                                  {{"dep", "b"}, {"ref", "b"}}};
  auto satisfied_at = [&](double threshold) {
    AlgorithmConfig config;
    config.error_threshold = threshold;
    auto result = LevelwiseNaryAlgorithm(config).Run(catalog, unary);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->satisfied : std::vector<NaryInd>{};
  };

  EXPECT_EQ(satisfied_at(0.25),
            (std::vector<NaryInd>{PairCandidate("dep", "ref")}));
  EXPECT_TRUE(satisfied_at(0.24).empty());
  // Exact mode (threshold 0) rejects any miss at all.
  EXPECT_TRUE(satisfied_at(0).empty());
}

}  // namespace
}  // namespace spider
