// Shared helpers for spider tests.

#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/discovery/accession.h"
#include "src/discovery/primary_relation.h"
#include "src/storage/catalog.h"
#include "src/storage/store_manifest.h"
#include "src/ind/candidate.h"
#include "src/ind/registry.h"

namespace spider::testing {

/// Forges a store manifest through its codec: decodes `manifest`, lets
/// `edit` change the struct and encodes the result. A manifest that does
/// not decode fails the test and comes back unchanged.
inline std::string ForgeStoreManifest(
    const std::string& manifest,
    const std::function<void(ManifestData&)>& edit) {
  Result<ManifestData> data = DecodeStoreManifest(manifest);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  if (!data.ok()) return manifest;
  edit(*data);
  return EncodeStoreManifest(*data);
}

/// Builds a single-column table "t<index>" with column "c" holding the given
/// string values ("" becomes NULL) and appends it to the catalog.
inline Table* AddStringColumn(Catalog* catalog, const std::string& table_name,
                              const std::string& column_name,
                              const std::vector<std::string>& values,
                              bool unique = false) {
  auto table = catalog->CreateTable(table_name);
  Table* t = table.ok() ? *table : catalog->FindTable(table_name);
  if (t == nullptr) return nullptr;
  // AddColumn rejects non-empty tables, so when the table pre-exists it is
  // guaranteed empty here and appending the values below stays valid.
  if (!t->AddColumn(column_name, TypeId::kString, unique).ok()) return nullptr;
  const int arity = t->column_count();
  const int col = t->ColumnIndex(column_name);
  for (const std::string& v : values) {
    std::vector<Value> row(static_cast<size_t>(arity));  // NULL-padded
    row[static_cast<size_t>(col)] = v.empty() ? Value::Null() : Value::String(v);
    if (!t->AppendRow(std::move(row)).ok()) return nullptr;
  }
  return t;
}

/// Ground-truth IND check via hash sets (independent of all the algorithms
/// under test): true iff every distinct non-NULL value of dep occurs in ref.
inline bool NaiveIncluded(const Column& dep, const Column& ref) {
  std::unordered_set<std::string> ref_values;
  for (const Value& v : ref.values()) {
    if (!v.is_null()) ref_values.insert(v.ToCanonicalString());
  }
  for (const Value& v : dep.values()) {
    if (v.is_null()) continue;
    if (!ref_values.contains(v.ToCanonicalString())) return false;
  }
  return true;
}

/// Computes the ground-truth satisfied set for a candidate list.
inline std::set<Ind> NaiveSatisfiedSet(const Catalog& catalog,
                                       const std::vector<IndCandidate>& candidates) {
  std::set<Ind> out;
  for (const IndCandidate& c : candidates) {
    auto dep = catalog.ResolveAttribute(c.dependent);
    auto ref = catalog.ResolveAttribute(c.referenced);
    if (!dep.ok() || !ref.ok()) continue;
    if (NaiveIncluded(**dep, **ref)) out.insert(Ind{c.dependent, c.referenced});
  }
  return out;
}

/// The registered unary IND verifiers, in registration order.
inline std::vector<std::string> UnaryApproachNames() {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  std::vector<std::string> names;
  for (const std::string& name : registry.NamesForKind(DependencyKind::kInd)) {
    auto entry = registry.Find(name);
    if (entry.ok() && !(*entry)->capabilities.nary) names.push_back(name);
  }
  return names;
}

/// Heuristic 1 (accession-number detection), then Heuristic 2 on its
/// candidates, as the schema report runs them.
inline Result<std::vector<PrimaryRelationCandidate>> RankPrimaryRelations(
    const Catalog& catalog, const std::vector<Ind>& satisfied_inds) {
  SPIDER_ASSIGN_OR_RETURN(std::vector<AccessionCandidate> accessions,
                          AccessionNumberDetector().Detect(catalog));
  return spider::RankPrimaryRelations(accessions, satisfied_inds);
}

/// Set-ifies a result vector for order-insensitive comparison.
inline std::set<Ind> ToSet(const std::vector<Ind>& inds) {
  return std::set<Ind>(inds.begin(), inds.end());
}

}  // namespace spider::testing
