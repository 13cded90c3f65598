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
/// no partial-coverage semantics) and to pick defaults.
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
  /// Honors RunContext::time_budget_seconds mid-run (all built-ins do).
  bool supports_time_budget = true;
  /// Runs inside the database engine (the paper's SQL statements) rather
  /// than over externally sorted value sets.
  bool database_internal = false;
  /// Independent instances may run concurrently over disjoint candidate
  /// partitions of one catalog (the session's parallel dispatcher requires
  /// this). Opt-in: registrants assert it explicitly — all built-ins do,
  /// since they only read the catalog and share nothing but the
  /// thread-safe extractor — and the session falls back to serial
  /// execution for approaches that don't.
  bool parallel_safe = false;
  /// Reads catalog data exclusively through streaming ValueCursors (or the
  /// extractor's sorted-set files), so it can profile out-of-core
  /// (disk-backend) catalogs. Opt-in: approaches that random-access
  /// materialized columns must leave this false, and the session rejects
  /// them up front for disk-backed catalogs instead of aborting mid-run.
  bool supports_out_of_core = false;
  /// An n-ary expansion (NaryAlgorithm) rather than a unary verifier: it
  /// derives higher-arity INDs from a satisfied unary base. The session
  /// runs RunOptions::nary_base first and feeds its result in. Set by
  /// Register from the factory type.
  bool nary = false;
  /// One-line description for usage strings and listings. Owned, so
  /// registrants may build it dynamically.
  std::string summary;
};

/// Unified construction-time knobs. Factories read only what applies to
/// their algorithm; the registry rejects combinations the capabilities
/// rule out.
struct AlgorithmConfig {
  /// Sorted-set materializer, required by external approaches. Not owned;
  /// must outlive the created algorithm.
  ValueSetExtractor* extractor = nullptr;
  /// Open-file budget for blockwise single-pass; 0 = unlimited.
  int max_open_files = 0;
  /// σ-partial coverage threshold in (0, 1]; 1 = exact INDs.
  double min_coverage = 1.0;
  /// Worker pool for n-ary expansions (per-level candidate batches /
  /// per-table-pair dispatch). Not owned; must outlive the algorithm.
  /// nullptr = serial (results are identical either way).
  ThreadPool* pool = nullptr;
  /// Maximum arity for n-ary expansions; values < 2 select each
  /// algorithm's default.
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
  /// Optional pool dedicated to background block prefetch on the merge
  /// path. Must NOT be the pool the algorithms run on: ThreadPool tasks
  /// must not block on other tasks' futures, and a reader waiting for its
  /// prefetch from inside a worker would do exactly that. Not owned;
  /// nullptr = synchronous reads.
  ThreadPool* io_pool = nullptr;
};

/// \brief String-keyed algorithm registry: one table of approaches in
/// registration order. Thread-compatible: all built-in registrations
/// happen inside Global()'s first use; later lookups are read-only.
class AlgorithmRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<IndAlgorithm>>(
      const AlgorithmConfig&)>;
  using NaryFactory = std::function<Result<std::unique_ptr<NaryAlgorithm>>(
      const AlgorithmConfig&)>;
  using DependencyFactory =
      std::function<Result<std::unique_ptr<DependencyAlgorithm>>(
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

  /// Builds an instance of the named approach after validating `config`
  /// against its capabilities (extractor present, σ / error threshold
  /// supported). T picks the family — IndAlgorithm, NaryAlgorithm or
  /// DependencyAlgorithm — and a name from another family fails with
  /// InvalidArgument.
  template <typename T = IndAlgorithm>
  [[nodiscard]]
  Result<std::unique_ptr<T>> Create(std::string_view name,
                                    const AlgorithmConfig& config = {}) const {
    using TypedFactory =
        std::function<Result<std::unique_ptr<T>>(const AlgorithmConfig&)>;
    SPIDER_ASSIGN_OR_RETURN(const Entry* entry, Find(name));
    const auto* factory = std::get_if<TypedFactory>(&entry->factory);
    if (factory == nullptr) {
      return FamilyMismatchError(
          *entry, AnyFactory(std::in_place_type<TypedFactory>).index());
    }
    SPIDER_RETURN_NOT_OK(ValidateConfig(*entry, config));
    return (*factory)(config);
  }

  /// Rejects `config` knobs the entry's capabilities rule out: a missing
  /// extractor, σ < 1 or an error threshold the approach cannot honor, and
  /// out-of-range values. Create runs it; the session runs it up front.
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
