// SpiderSession: the registry-driven profiling entry point.
//
// A session binds one catalog to a sorted-value-set workspace. Each Run()
// drives every approach through the same steps: validate the options
// (ValidateRunOptions) before any work, generate unary IND candidates (IND
// approaches only), dispatch the algorithm under one unified set of
// controls (time budget, cancellation, progress, σ-partial coverage,
// memory/file budgets), fold the extractor's work into the result and seal
// the persisted profile. An n-ary expansion runs after the unary phase, on
// its satisfied set. The extractor cache lives in the session, so sweeping
// several approaches over the same catalog extracts and sorts each
// attribute only once — exactly the reuse the paper's database-external
// approaches are built on.
//
// With RunOptions::threads != 1 the verification phase runs on a worker
// pool: the candidate set is partitioned into connected components of the
// attribute graph and independent partitions execute concurrently through
// RunBatch, each on its own algorithm instance, under one shared
// cancellation token and time budget. Results are identical to the
// single-threaded run — the satisfied set is returned sorted either way.
//
//   SpiderSession session(catalog);
//   RunOptions options;
//   options.approach = "spider-merge";
//   options.time_budget_seconds = 60;
//   options.threads = 0;  // hardware concurrency
//   SPIDER_ASSIGN_OR_RETURN(SessionReport report, session.Run(options));

#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/stopwatch.h"
#include "src/common/temp_dir.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/candidate_generator.h"
#include "src/ind/registry.h"

namespace spider {

/// Per-session knobs: where sorted value sets live and how much memory
/// each external sort may use.
struct SessionOptions {
  /// Working directory for sorted value sets; a scoped temp dir when empty.
  std::string work_dir;
  /// Memory budget per external sort.
  int64_t sort_memory_budget_bytes = 64LL << 20;
  /// Persist the workspace profile (spider_profile.manifest in work_dir):
  /// reuse sorted set files and exact-IND verdicts whose fingerprints still
  /// verify, and record fresh ones after each finished run. Pointless with
  /// an empty work_dir (the temp workspace dies with the session).
  bool persist_profile = false;
};

/// Per-run knobs, honored uniformly across all registered approaches.
struct RunOptions {
  /// Registry name of the approach (any dependency kind).
  std::string approach = "brute-force";
  /// Expected dependency kind; unset = whatever the approach discovers. A
  /// set kind that contradicts the approach's capabilities fails up front
  /// with the valid approaches for that kind.
  std::optional<DependencyKind> kind;
  /// Candidate generation and pretests.
  CandidateGeneratorOptions generator;
  /// Wall-clock budget for the whole run, measured from Run() entry: it
  /// covers candidate generation, verification and n-ary expansion (or
  /// UCC/FD discovery). Generation does not poll it; each algorithm gets
  /// whatever remains when it starts. 0 = unlimited. On expiry the run
  /// returns finished=false with a partial result of confirmed
  /// dependencies only.
  double time_budget_seconds = 0;
  /// Optional cancellation flag, polled cooperatively mid-run. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Optional progress sink. Serial runs invoke it from the running
  /// thread; parallel runs aggregate partition progress and invoke it
  /// serialized (done/total then span all partitions).
  ProgressCallback progress;
  /// σ-partial coverage in (0, 1]; 1 = exact INDs. Requires an approach
  /// whose capabilities advertise supports_partial.
  double min_coverage = 1.0;
  /// Open-file budget for blockwise single-pass; 0 = unlimited. Under
  /// parallel dispatch the budget applies per partition. N-ary expansions
  /// do not consult it: their merges hold exactly two sorted sets per
  /// verification task, so concurrent open files are bounded by
  /// 2 × threads rather than by this knob.
  int max_open_files = 0;
  /// Worker threads for extraction and verification: 1 = single-threaded
  /// (the paper's configuration), 0 = hardware concurrency, N = exactly N.
  /// The satisfied-IND set is identical for every value.
  int threads = 1;
  /// Unary base approach when `approach` names an n-ary expansion: the
  /// session first profiles unary INDs with this approach, then feeds the
  /// satisfied set into the expansion. Must itself be a unary approach.
  std::string nary_base = "spider-merge";
  /// Maximum arity for n-ary expansions and UCC combinations; values < 2
  /// select the algorithm's default.
  int nary_max_arity = 0;
  /// g3-style error threshold in [0, 1); 0 = exact. Applies to the n-ary
  /// expansion ("nary": candidates satisfied when the g3' error is <= the
  /// threshold) and to AFD discovery. Rejected up front for approaches
  /// without supports_partial, and for unary IND verification (σ-partial
  /// coverage is `min_coverage`).
  double error_threshold = 0;
  /// Maximum determinant (LHS) arity for FD/AFD discovery; values < 1
  /// select the algorithm's default.
  int max_lhs_arity = 0;
  /// Honor set-file footer zonemaps in the merge loops
  /// (SortedSetReader::SkipToAtLeast). The satisfied set is identical
  /// either way; off forces the pre-block linear scans that the
  /// skip-parity tests compare against.
  bool block_skip = true;
  /// Consult the persisted profile's verdicts for this run (only
  /// meaningful with SessionOptions::persist_profile): reuse remembered
  /// exact-IND verdicts whose source fingerprints still match and hand only
  /// the rest to the algorithm. Off reuses and records no verdict, so every
  /// candidate is verified; set files that verify are still reused and
  /// freshly extracted ones still recorded (the extractor's separate,
  /// always-safe layer). `--no-profile-cache` in the CLI and
  /// `"no-profile-cache"` in a spiderd job body mean exactly this. The
  /// satisfied set is identical either way.
  bool profile_cache = true;
};

/// Everything one session run produces.
struct SessionReport {
  /// Registry name of the approach that ran.
  std::string approach;
  /// The dependency kind the approach discovers. For kInd the `candidates`
  /// / `run` / `nary_run` sections apply; for the other kinds the result
  /// lives in `dependency`.
  DependencyKind kind = DependencyKind::kInd;
  /// The generated candidates by attribute id, with the attribute table
  /// that names them.
  CandidateGraph candidates;
  /// The verification outcome. `run.satisfied` is sorted (deterministic
  /// across thread counts); it is the one place the session names INDs.
  IndRunResult run;
  /// Seconds spent generating candidates (statistics pass + pretests).
  double generation_seconds = 0;
  /// Total including generation.
  double total_seconds = 0;
  /// Worker threads the verification phase actually used.
  int threads_used = 1;
  /// Candidate partitions dispatched (1 for serial runs).
  int partitions = 1;
  /// True when `approach` named an n-ary expansion: `run` then holds the
  /// unary base profile (produced with `nary_base`) and `nary_run` the
  /// expansion outcome.
  bool nary = false;
  /// The unary base approach the n-ary phase ran on.
  std::string nary_base;
  NaryRunResult nary_run;
  /// The non-IND outcome (UCCs or FDs), populated when `kind` != kInd.
  /// Sorted, deterministic across backends and thread counts.
  DependencyRunResult dependency;
  /// True when this run answered any work from the persisted profile —
  /// reused verdicts or reused sorted set files.
  bool profile_reused = false;
  /// Unary candidates actually handed to the verification algorithm after
  /// verdict reuse (== candidates.size() without a usable profile).
  int64_t candidates_revalidated = 0;
  /// Candidates answered from remembered verdicts without re-verification.
  int64_t verdicts_reused = 0;
  /// Why sealing the persisted profile failed; empty when it succeeded or
  /// was not needed. The profile is a cache: this run's results stand, the
  /// next session recomputes what could not be saved.
  std::string profile_save_error;

  /// Human-readable multi-line summary.
  std::string ToString() const;
};

/// Splits candidates into connected components of the attribute graph
/// (attributes are nodes, candidates are edges): partitions share no
/// attribute, so they can be verified independently and concurrently.
/// Deterministic: partitions are ordered by first appearance and preserve
/// the input's candidate order. Ids must be below `attribute_count`.
std::vector<std::vector<AttributePair>> PartitionCandidatesByComponent(
    size_t attribute_count, const std::vector<AttributePair>& candidates);

/// The same partitions by name, for callers outside the session.
std::vector<std::vector<IndCandidate>> PartitionCandidatesByComponent(
    const std::vector<IndCandidate>& candidates);

/// Refines a component partitioning for a worker count: while there are
/// fewer partitions than `target`, the largest partition (ties: the
/// earliest) is split in half at a candidate boundary, each half keeping
/// its candidate order. Candidates of one component stay verifiable in
/// isolation — approaches only require disjoint candidate lists, not whole
/// components — so a fully connected attribute graph no longer collapses
/// --threads=N to one worker. Partitions below
/// 2 × kMinSplitPartition candidates never split: below that the
/// duplicated referenced-side reads outweigh the parallelism. The
/// satisfied set is identical with or without splitting (the session
/// sorts it); only cursor-sharing counters like tuples_read may differ.
/// Deterministic for a given (partitioning, target); the same for
/// candidates by id or by name.
inline constexpr size_t kMinSplitPartition = 8;
template <typename Candidate>
std::vector<std::vector<Candidate>> SplitPartitionsForParallelism(
    std::vector<std::vector<Candidate>> partitions, size_t target) {
  while (partitions.size() < target) {
    size_t largest = 0;
    for (size_t i = 1; i < partitions.size(); ++i) {
      if (partitions[i].size() > partitions[largest].size()) largest = i;
    }
    if (partitions[largest].size() < 2 * kMinSplitPartition) break;
    std::vector<Candidate>& whole = partitions[largest];
    const size_t half = whole.size() / 2;
    std::vector<Candidate> back(
        std::make_move_iterator(whole.begin() + static_cast<ptrdiff_t>(half)),
        std::make_move_iterator(whole.end()));
    whole.resize(half);
    // Inserting right after the front half keeps the concatenation of all
    // partitions equal to the input candidate order.
    partitions.insert(partitions.begin() + static_cast<ptrdiff_t>(largest) + 1,
                      std::move(back));
  }
  return partitions;
}

/// The one check of an option set: every rule a run imposes, decided from
/// `options` and the global registry alone. `approach` and `nary_base`
/// must resolve (NotFound with the registry's suggestion); a set `kind`
/// must be the approach's; σ < 1 needs a unary IND verifier that supports
/// it, an error threshold an expansion or discoverer that does; nary_base
/// is never an expansion and, under an expansion, is a unary IND verifier.
/// ParseRunOptions calls it last and SpiderSession::Run first, so the
/// CLI, spiderd and library callers reject the same sets with the same
/// text before any catalog, workspace or profile is touched.
[[nodiscard]]
Status ValidateRunOptions(const RunOptions& options);

/// \brief Owns the catalog binding, workspace and extractor cache for any
/// number of profiling runs over one database instance.
class SpiderSession {
 public:
  /// Binds to a caller-owned catalog; it must outlive the session.
  explicit SpiderSession(const Catalog& catalog, SessionOptions options = {});
  /// Takes ownership of the catalog.
  explicit SpiderSession(std::unique_ptr<Catalog> catalog,
                         SessionOptions options = {});

  const Catalog& catalog() const { return *catalog_; }

  /// Runs the named approach (any kind) under `options`, after
  /// ValidateRunOptions. Value-set extraction is cached across calls.
  [[nodiscard]]
  Result<SessionReport> Run(const RunOptions& options = {});

  /// The session's sorted-set extractor (created on first use, thread-safe
  /// — concurrent Run() calls share one workspace). Exposed for callers
  /// that mix session runs with direct algorithm use, e.g. the partial-IND
  /// finder.
  [[nodiscard]]
  Result<ValueSetExtractor*> extractor() SPIDER_EXCLUDES(mutex_);

 private:
  /// The unary IND phase: generate candidates, answer what the persisted
  /// profile still vouches for, verify the rest with `verifier` — serially
  /// or partitioned onto `pool` — and record the fresh verdicts. Sets
  /// `*verdicts_recorded` when the profile changed.
  [[nodiscard]]
  Status VerifyUnary(const RunOptions& options,
                     const AlgorithmRegistry::Entry& verifier,
                     const AlgorithmConfig& config, ThreadPool* pool,
                     const Stopwatch& run_watch, SessionReport* report,
                     bool* verdicts_recorded);

  /// Verifies candidate partitions on `pool` through RunBatch, one
  /// algorithm instance each, and folds them in partition order.
  [[nodiscard]]
  Result<IdRunResult> RunParallel(const RunOptions& options,
                                  const std::string& approach,
                                  const AlgorithmConfig& config,
                                  const std::vector<AttributeRef>& attributes,
                                  const std::vector<AttributePair>& candidates,
                                  ThreadPool& pool, const Stopwatch& run_watch,
                                  SessionReport* report);

  const Catalog* catalog_;
  std::unique_ptr<Catalog> owned_catalog_;
  SessionOptions options_;
  Mutex mutex_;
  /// Lazy-init workspace state: created once under mutex_ by the first
  /// extractor() call, then only read through the returned raw pointer
  /// (the extractor is itself thread-safe, so concurrent runs share it).
  std::unique_ptr<TempDir> temp_dir_ SPIDER_GUARDED_BY(mutex_);
  std::unique_ptr<ValueSetExtractor> extractor_ SPIDER_GUARDED_BY(mutex_);
};

}  // namespace spider
