#include "src/ind/candidate_generator.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace spider {

namespace {

// What pass 2 needs of an attribute beyond its table entry.
struct AttributeInfo {
  const Column* column;
  bool dependent_eligible = false;
  bool referenced_eligible = false;
};

bool IsUniqueFor(const Column& column, const ColumnStats& stats,
                 UniquenessSource source) {
  switch (source) {
    case UniquenessSource::kDeclared:
      return column.declared_unique();
    case UniquenessSource::kVerified:
      return stats.verified_unique;
    case UniquenessSource::kEither:
      return column.declared_unique() || stats.verified_unique;
  }
  return false;
}

}  // namespace

Result<CandidateGraph> CandidateGenerator::GenerateGraph(
    const Catalog& catalog) const {
  CandidateGraph result;

  // Pass 1: per-attribute statistics and eligibility, indexed by id.
  std::vector<AttributeInfo> attributes;
  for (int t = 0; t < catalog.table_count(); ++t) {
    const Table& table = catalog.table(t);
    for (int c = 0; c < table.column_count(); ++c) {
      const Column& column = table.column(c);
      const ColumnStats& stats =
          result.stats.emplace_back(ComputeColumnStats(column));
      result.attributes.push_back(AttributeRef{table.name(), column.name()});
      AttributeInfo info;
      info.column = &column;
      // Dependent attributes: non-empty columns of any type except LOB.
      info.dependent_eligible =
          stats.non_null_count > 0 && IsIndEligibleType(column.type());
      // Referenced attributes: non-empty unique columns.
      info.referenced_eligible =
          stats.non_null_count > 0 && IsIndEligibleType(column.type()) &&
          IsUniqueFor(column, stats, options_.uniqueness_source);
      attributes.push_back(info);
    }
  }

  // Sampled dependent values for the sampling pretest, drawn once per
  // dependent attribute; referenced value sets are hashed once per
  // referenced attribute on first use.
  Random rng(options_.sample_seed);
  std::vector<std::vector<std::string>> samples(attributes.size());
  if (options_.sampling_pretest) {
    for (size_t d = 0; d < attributes.size(); ++d) {
      const AttributeInfo& dep = attributes[d];
      if (!dep.dependent_eligible) continue;
      std::vector<std::string>& sample = samples[d];
      if (!dep.column->out_of_core()) {
        // Random access is the point of sampling; the out-of-core branch
        // below streams instead.
        // spider-lint: allow(column-values): in-memory column, gated on !out_of_core() above
        const auto& values = dep.column->values();
        for (int i = 0; i < options_.sample_size; ++i) {
          // Rejection-sample a non-NULL row; the column is non-empty.
          for (int attempt = 0; attempt < 256; ++attempt) {
            const Value& v = values[static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(values.size()) - 1))];
            if (!v.is_null()) {
              sample.push_back(v.ToCanonicalString());
              break;
            }
          }
        }
      } else {
        // Disk backend: one streaming pass, reservoir-sampling the non-NULL
        // values (deterministic for a fixed seed). The sample differs from
        // the in-memory draw, but the pretest stays sound either way — it
        // only prunes candidates some sampled value already refutes.
        auto cursor = dep.column->OpenCursor();
        if (!cursor.ok()) return cursor.status();
        std::string_view view;
        int64_t seen = 0;
        for (CursorStep step = (*cursor)->Next(&view);
             step != CursorStep::kEnd; step = (*cursor)->Next(&view)) {
          if (step == CursorStep::kNull) continue;
          if (seen < options_.sample_size) {
            sample.emplace_back(view);
          } else {
            const int64_t j = rng.Uniform(0, seen);
            if (j < options_.sample_size) {
              sample[static_cast<size_t>(j)] = std::string(view);
            }
          }
          ++seen;
        }
        SPIDER_RETURN_NOT_OK((*cursor)->status());
      }
    }
  }
  // Pass 2: enumerate ref × dep pairs and apply pretests in increasing
  // cost order. The loop is referenced-major so the sampling pretest's
  // hashed value set lives for exactly one referenced attribute — peak
  // pretest memory is one column, not every referenced column at once
  // (load-bearing for out-of-core catalogs). Surviving pairs are then
  // bucketed by dependent; each bucket receives its referenced ids in
  // ascending order, so the list comes out sorted (dependent-major).
  std::vector<AttributePair> surviving;
  std::vector<size_t> per_dependent(attributes.size() + 1, 0);
  for (size_t r = 0; r < attributes.size(); ++r) {
    const AttributeInfo& ref = attributes[r];
    if (!ref.referenced_eligible) continue;
    const ColumnStats& ref_stats = result.stats[r];
    std::unordered_set<std::string> ref_hash;
    bool ref_hash_built = false;
    for (size_t d = 0; d < attributes.size(); ++d) {
      const AttributeInfo& dep = attributes[d];
      if (!dep.dependent_eligible) continue;
      if (d == r) continue;  // a ⊆ a is trivial
      ++result.raw_pair_count;
      const ColumnStats& dep_stats = result.stats[d];

      if (options_.type_pretest && dep.column->type() != ref.column->type()) {
        ++result.pruned_by_type;
        continue;
      }
      if (options_.cardinality_pretest &&
          dep_stats.distinct_count > ref_stats.distinct_count) {
        ++result.pruned_by_cardinality;
        continue;
      }
      if (options_.max_value_pretest && dep_stats.max_value &&
          ref_stats.max_value && *dep_stats.max_value > *ref_stats.max_value) {
        ++result.pruned_by_max_value;
        continue;
      }
      if (options_.min_value_pretest && dep_stats.min_value &&
          ref_stats.min_value && *dep_stats.min_value < *ref_stats.min_value) {
        ++result.pruned_by_min_value;
        continue;
      }
      if (options_.sampling_pretest) {
        if (!ref_hash_built) {
          ref_hash.reserve(static_cast<size_t>(ref_stats.non_null_count));
          auto cursor = ref.column->OpenCursor();
          if (!cursor.ok()) return cursor.status();
          std::string_view view;
          for (CursorStep step = (*cursor)->Next(&view);
               step != CursorStep::kEnd; step = (*cursor)->Next(&view)) {
            if (step == CursorStep::kValue) ref_hash.emplace(view);
          }
          SPIDER_RETURN_NOT_OK((*cursor)->status());
          ref_hash_built = true;
        }
        bool refuted = false;
        for (const std::string& s : samples[d]) {
          if (!ref_hash.contains(s)) {
            refuted = true;
            break;
          }
        }
        if (refuted) {
          ++result.pruned_by_sampling;
          continue;
        }
      }

      surviving.push_back(AttributePair{static_cast<AttributeId>(d),
                                        static_cast<AttributeId>(r)});
      ++per_dependent[d + 1];
    }
  }

  for (size_t d = 1; d < per_dependent.size(); ++d) {
    per_dependent[d] += per_dependent[d - 1];
  }
  result.candidates.resize(surviving.size());
  for (const AttributePair& pair : surviving) {
    result.candidates[per_dependent[pair.dependent]++] = pair;
  }
  return result;
}

Result<CandidateSet> CandidateGenerator::Generate(
    const Catalog& catalog) const {
  SPIDER_ASSIGN_OR_RETURN(CandidateGraph graph, GenerateGraph(catalog));
  CandidateSet result;
  static_cast<PretestCounts&>(result) = graph;
  result.candidates =
      NamePairs<IndCandidate>(graph.attributes, graph.candidates);
  for (size_t id = 0; id < graph.attributes.size(); ++id) {
    result.stats.emplace(graph.attributes[id], std::move(graph.stats[id]));
  }
  return result;
}

}  // namespace spider
