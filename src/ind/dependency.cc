#include "src/ind/dependency.h"

#include "src/common/string_util.h"
#include "src/extsort/value_set_extractor.h"

namespace spider {

std::string_view KindName(DependencyKind kind) {
  switch (kind) {
    case DependencyKind::kInd:
      return "ind";
    case DependencyKind::kUcc:
      return "ucc";
    case DependencyKind::kFd:
      return "fd";
    case DependencyKind::kAfd:
      return "afd";
  }
  return "ind";
}

Result<DependencyKind> ParseDependencyKind(std::string_view name) {
  if (name == "ind") return DependencyKind::kInd;
  if (name == "ucc") return DependencyKind::kUcc;
  if (name == "fd") return DependencyKind::kFd;
  if (name == "afd") return DependencyKind::kAfd;
  return Status::InvalidArgument("unknown dependency kind '" +
                                 std::string(name) +
                                 "' (valid kinds: ind, ucc, fd, afd)");
}

std::string Ucc::ToString() const {
  return table + "(" + JoinStrings(columns, ", ") + ")";
}

std::string Fd::ToString() const {
  return table + "(" + JoinStrings(lhs, ", ") + " -> " + rhs + ")";
}

Result<int64_t> DistinctTupleCount(const Catalog& catalog,
                                   ValueSetExtractor* extractor,
                                   const Table& table,
                                   const std::vector<int>& columns,
                                   RunCounters* counters) {
  std::vector<AttributeRef> attributes;
  attributes.reserve(columns.size());
  for (int c : columns) {
    attributes.push_back(AttributeRef{table.name(), table.column(c).name()});
  }
  SPIDER_ASSIGN_OR_RETURN(
      const SortedSetInfo info,
      attributes.size() == 1
          ? extractor->Extract(catalog, attributes.front(), counters)
          : extractor->ExtractComposite(catalog, attributes, counters));
  return info.distinct_count;
}

}  // namespace spider
