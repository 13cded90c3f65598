// Name-based registry of dependency-discovery algorithms.
//
// Every approach registers a factory plus a Capabilities descriptor under
// its display name ("brute-force", "sql-join", "ucc-levelwise", ...).
// Consumers — the SpiderSession, the CLI, the benchmarks — resolve
// approaches by string, so adding an algorithm means one registration call
// instead of touching an enum, a name table and every switch over it.
// Capabilities carry a DependencyKind (IND / UCC / FD / AFD), turning the
// registry into a multi-dependency platform. One table holds every
// approach in registration order; an entry's factory type says which
// interface it builds: unary IndAlgorithm, n-ary NaryAlgorithm, or
// DependencyAlgorithm for the other kinds.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/algorithm.h"
#include "src/ind/dependency.h"
#include "src/ind/nary_algorithm.h"

namespace spider {

/// What an approach needs and what it can do. Consumers use this to
/// validate configurations up front (e.g. σ < 1 with an approach that has
/// no partial-coverage semantics) and to pick defaults. What every
/// approach must do is no capability: honor RunContext's budget and
/// cancellation, run as independent concurrent instances (sharing only
/// the thread-safe extractor and the run's context), and read data
/// through cursors or sorted sets, so disk-backed catalogs profile like
/// in-memory ones.
struct AlgorithmCapabilities {
  /// The dependency class the approach discovers. IND approaches (unary
  /// verifiers and n-ary expansions) are kInd; UCC/FD/AFD discoverers
  /// register a DependencyFactory with their kind.
  DependencyKind kind = DependencyKind::kInd;
  /// Reads sorted value sets materialized by a ValueSetExtractor; creating
  /// the algorithm without one fails.
  bool needs_extractor = false;
  /// Understands approximate discovery: σ-partial coverage
  /// (AlgorithmConfig::min_coverage < 1) for IND verifiers, or a g3-style
  /// error threshold (AlgorithmConfig::error_threshold > 0) for the n-ary
  /// expansion and the AFD discoverer. Configs requesting either knob are
  /// rejected up front when this is false.
  bool supports_partial = false;
  /// Bounds the set files it holds open at once by
  /// AlgorithmConfig::max_open_files (the blockwise single pass, Sec. 4.2).
  /// Configs with a nonzero budget are rejected up front when this is
  /// false.
  bool bounds_open_files = false;
  /// Runs inside the database engine (the paper's SQL statements) rather
  /// than over externally sorted value sets.
  bool database_internal = false;
  /// An n-ary expansion (NaryAlgorithm) rather than a unary verifier: it
  /// derives higher-arity INDs from a satisfied unary base. The session
  /// runs RunOptions::nary_base first and feeds its result in. Set by
  /// Register from the factory type.
  bool nary = false;
  /// One-line description for usage strings and listings. Owned, so
  /// registrants may build it dynamically.
  std::string summary;
};

/// Unified construction-time knobs. Every registered algorithm is built
/// from this config and reads the fields that apply to it; the registry
/// rejects combinations the capabilities rule out.
struct AlgorithmConfig {
  /// Sorted-set materializer, required by external approaches. Not owned;
  /// must outlive the created algorithm.
  ValueSetExtractor* extractor = nullptr;
  /// Open-file budget: 0 = unlimited, else at least 2 (one dependent and
  /// one referenced set). Values > 0 require bounds_open_files.
  int max_open_files = 0;
  /// σ-partial coverage threshold in (0, 1]; 1 = exact INDs.
  double min_coverage = 1.0;
  /// Worker pool for n-ary expansions (per-level candidate batches /
  /// per-table-pair dispatch) and the per-table UCC/FD searches. Not
  /// owned; must outlive the algorithm. nullptr = serial (results are
  /// identical either way).
  ThreadPool* pool = nullptr;
  /// Maximum arity for n-ary expansions (values < 2 select each
  /// expansion's default) and UCC combinations (values < 1 select the
  /// default).
  int max_nary_arity = 0;
  /// g3-style error threshold in [0, 1): 0 = exact. An n-ary candidate or
  /// FD whose measured error is <= the threshold counts as satisfied.
  /// Values > 0 require supports_partial.
  double error_threshold = 0;
  /// Maximum determinant (LHS) arity for FD/AFD discovery; values < 1
  /// select each algorithm's default. Ignored by other kinds.
  int max_lhs_arity = 0;
  /// Honor set-file footer zonemaps in the merge loops
  /// (SortedSetReader::SkipToAtLeast). On by default; turning it off
  /// forces the pre-block linear scans — same satisfied sets, more
  /// tuples_read — which is what the skip-parity tests compare against.
  bool block_skip = true;
};

/// \brief String-keyed algorithm registry: one table of approaches in
/// registration order. Thread-compatible: all built-in registrations
/// happen inside Global()'s first use; later lookups are read-only.
class AlgorithmRegistry {
 public:
  /// Factories build the algorithm from the validated config; they
  /// cannot fail (Create validates first).
  using Factory =
      std::function<std::unique_ptr<IndAlgorithm>(const AlgorithmConfig&)>;
  using NaryFactory =
      std::function<std::unique_ptr<NaryAlgorithm>(const AlgorithmConfig&)>;
  using DependencyFactory =
      std::function<std::unique_ptr<DependencyAlgorithm>(
          const AlgorithmConfig&)>;
  /// The factory's alternative is the approach's family: unary verifier,
  /// n-ary expansion or non-IND discoverer.
  using AnyFactory = std::variant<Factory, NaryFactory, DependencyFactory>;

  struct Entry {
    std::string name;
    AlgorithmCapabilities capabilities;
    AnyFactory factory;
  };

  /// The process-wide registry, with all built-in approaches registered.
  static AlgorithmRegistry& Global();

  /// Registers an approach. The factory type fixes the family:
  /// `capabilities.nary` is set exactly for a NaryFactory, the IND
  /// families are forced to kInd, and a DependencyFactory must carry kUcc,
  /// kFd or kAfd. Fails with AlreadyExists on a duplicate name.
  [[nodiscard]]
  Status Register(std::string name, AlgorithmCapabilities capabilities,
                  AnyFactory factory);

  /// The entry for any registered name, or NotFound with the valid names
  /// per kind (and a nearest-match suggestion).
  [[nodiscard]]
  Result<const Entry*> Find(std::string_view name) const;

  /// Builds an instance of the named approach after checking that
  /// `config` carries the extractor the approach needs and passes
  /// ValidateConfig. T picks the family — IndAlgorithm, NaryAlgorithm or
  /// DependencyAlgorithm — and a name from another family fails with
  /// InvalidArgument.
  template <typename T = IndAlgorithm>
  [[nodiscard]]
  Result<std::unique_ptr<T>> Create(std::string_view name,
                                    const AlgorithmConfig& config = {}) const {
    using TypedFactory =
        std::function<std::unique_ptr<T>(const AlgorithmConfig&)>;
    SPIDER_ASSIGN_OR_RETURN(const Entry* entry, Find(name));
    const auto* factory = std::get_if<TypedFactory>(&entry->factory);
    if (factory == nullptr) {
      return FamilyMismatchError(
          *entry, AnyFactory(std::in_place_type<TypedFactory>).index());
    }
    if (entry->capabilities.needs_extractor && config.extractor == nullptr) {
      return Status::InvalidArgument(entry->name +
                                     " requires a value-set extractor");
    }
    SPIDER_RETURN_NOT_OK(ValidateConfig(*entry, config));
    return (*factory)(config);
  }

  /// Rejects `config` knobs the entry's capabilities rule out: σ < 1, an
  /// error threshold or an open-file budget the approach cannot honor, and
  /// out-of-range values.
  /// Create runs it; ValidateRunOptions runs it before a session does any
  /// work.
  [[nodiscard]]
  static Status ValidateConfig(const Entry& entry,
                               const AlgorithmConfig& config);

  /// Every registered name, in registration order (deterministic).
  std::vector<std::string> Names() const;

  /// Every name registered under `kind`, in registration order. Empty
  /// when nothing handles the kind.
  std::vector<std::string> NamesForKind(DependencyKind kind) const;

  /// The default approach for a kind: its first registered name, or
  /// NotFound when no approach handles the kind.
  [[nodiscard]]
  Result<std::string> DefaultNameForKind(DependencyKind kind) const;

 private:
  /// NotFound carrying the valid names grouped by kind plus a
  /// nearest-match "did you mean" suggestion: lookup failures teach the
  /// namespace instead of restating the bad input.
  [[nodiscard]]
  Status UnknownNameError(std::string_view name) const;

  /// InvalidArgument for creating `entry` as family `wanted` (an
  /// AnyFactory alternative index).
  [[nodiscard]]
  static Status FamilyMismatchError(const Entry& entry, size_t wanted);

  std::vector<Entry> entries_;
};

}  // namespace spider
