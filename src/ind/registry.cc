#include "src/ind/registry.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/ind/bell_brockhausen.h"
#include "src/ind/brute_force.h"
#include "src/ind/clique_nary.h"
#include "src/ind/de_marchi.h"
#include "src/ind/fd_levelwise.h"
#include "src/ind/nary.h"
#include "src/ind/single_pass.h"
#include "src/ind/spider_merge.h"
#include "src/ind/sql_algorithms.h"
#include "src/ind/ucc_levelwise.h"
#include "src/ind/zigzag.h"

namespace spider {

AlgorithmRegistry& AlgorithmRegistry::Global() {
  // Each algorithm's registration code lives next to its implementation;
  // calling the hooks here (instead of via static initializers) keeps the
  // order deterministic and survives static-library dead-stripping.
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    RegisterBruteForceAlgorithm(*r);
    RegisterSinglePassAlgorithm(*r);
    RegisterSqlAlgorithms(*r);
    RegisterSpiderMergeAlgorithm(*r);
    RegisterDeMarchiAlgorithm(*r);
    RegisterBellBrockhausenAlgorithm(*r);
    // N-ary expansions, runnable on top of any unary approach above.
    RegisterNaryAlgorithm(*r);
    RegisterCliqueNaryAlgorithm(*r);
    RegisterZigzagAlgorithm(*r);
    // Non-IND dependency kinds (UCC / FD / AFD); first registration per
    // kind is that kind's default approach.
    RegisterUccLevelwiseAlgorithm(*r);
    RegisterFdLevelwiseAlgorithms(*r);
    return r;
  }();
  return *registry;
}

Status AlgorithmRegistry::Register(std::string name,
                                   AlgorithmCapabilities capabilities,
                                   AnyFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("algorithm name must be non-empty");
  }
  const bool dependency = std::holds_alternative<DependencyFactory>(factory);
  if (dependency && capabilities.kind == DependencyKind::kInd) {
    return Status::InvalidArgument(
        "IND approaches register a Factory or NaryFactory, not a "
        "DependencyFactory: " +
        name);
  }
  if (Find(name).ok()) {
    return Status::AlreadyExists("algorithm already registered: " + name);
  }
  SPIDER_CHECK(std::visit([](const auto& f) { return f != nullptr; }, factory))
      << "null factory for " << name;
  capabilities.nary = std::holds_alternative<NaryFactory>(factory);
  if (!dependency) capabilities.kind = DependencyKind::kInd;
  entries_.push_back(
      Entry{std::move(name), std::move(capabilities), std::move(factory)});
  return Status::OK();
}

Result<const AlgorithmRegistry::Entry*> AlgorithmRegistry::Find(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return UnknownNameError(name);
}

Status AlgorithmRegistry::UnknownNameError(std::string_view name) const {
  std::string message = "unknown approach '" + std::string(name) + "'";

  // Nearest registered name, when plausibly a typo (distance bounded by
  // roughly a third of the name so unrelated strings suggest nothing).
  std::string best;
  size_t best_distance = std::max<size_t>(2, name.size() / 3) + 1;
  for (const Entry& entry : entries_) {
    const size_t distance = EditDistance(name, entry.name);
    if (distance < best_distance) {
      best_distance = distance;
      best = entry.name;
    }
  }
  if (!best.empty()) {
    message += " — did you mean '" + best + "'?";
  } else {
    message += ".";
  }
  message += " Valid approaches:";
  for (DependencyKind kind : {DependencyKind::kInd, DependencyKind::kUcc,
                              DependencyKind::kFd, DependencyKind::kAfd}) {
    const std::vector<std::string> names = NamesForKind(kind);
    if (names.empty()) continue;
    message += " " + std::string(KindName(kind)) + ": " +
               JoinStrings(names, ", ") + ";";
  }
  if (message.back() == ';') message.pop_back();
  return Status::NotFound(message);
}

Status AlgorithmRegistry::FamilyMismatchError(const Entry& entry,
                                              size_t wanted) {
  // Indexed by AnyFactory alternative.
  static constexpr std::string_view kFamilies[] = {
      "a unary IND verifier", "an n-ary IND expansion",
      "a UCC/FD/AFD discoverer"};
  const std::string family =
      std::holds_alternative<DependencyFactory>(entry.factory)
          ? "a " + std::string(KindName(entry.capabilities.kind)) +
                " discoverer"
          : std::string(kFamilies[entry.factory.index()]);
  return Status::InvalidArgument(entry.name + " is " + family + ", not " +
                                 std::string(kFamilies[wanted]) +
                                 " (run it through SpiderSession)");
}

Status AlgorithmRegistry::ValidateConfig(const Entry& entry,
                                         const AlgorithmConfig& config) {
  const AlgorithmCapabilities& capabilities = entry.capabilities;
  if (config.min_coverage <= 0 || config.min_coverage > 1.0) {
    return Status::InvalidArgument("min_coverage must be in (0, 1]");
  }
  if (config.min_coverage < 1.0 && !capabilities.supports_partial) {
    return Status::InvalidArgument(
        entry.name + " does not support partial (sigma < 1) coverage");
  }
  if (config.error_threshold < 0 || config.error_threshold >= 1.0) {
    return Status::InvalidArgument("error_threshold must be in [0, 1)");
  }
  if (config.error_threshold > 0 && !capabilities.supports_partial) {
    return Status::InvalidArgument(
        entry.name + " does not support an error threshold (error > 0)");
  }
  if (config.max_open_files < 0 || config.max_open_files == 1) {
    return Status::InvalidArgument(
        "max-open-files must be 0 (unlimited) or at least 2 (one dependent "
        "and one referenced set)");
  }
  if (config.max_open_files > 0 && !capabilities.bounds_open_files) {
    return Status::InvalidArgument(
        entry.name + " does not bound its open files (max-open-files > 0)");
  }
  return Status::OK();
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

std::vector<std::string> AlgorithmRegistry::NamesForKind(
    DependencyKind kind) const {
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    if (entry.capabilities.kind == kind) names.push_back(entry.name);
  }
  return names;
}

Result<std::string> AlgorithmRegistry::DefaultNameForKind(
    DependencyKind kind) const {
  const std::vector<std::string> names = NamesForKind(kind);
  if (names.empty()) {
    return Status::NotFound("no approach registered for kind '" +
                            std::string(KindName(kind)) + "'");
  }
  return names.front();
}

}  // namespace spider
