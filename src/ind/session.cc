#include "src/ind/session.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/ind/run_batch.h"

namespace spider {

namespace {

// Union-find over attribute ids for the component partitioning.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    // Deterministic: the smaller root wins, independent of union order.
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<size_t> parent_;
};

// Hands an algorithm the run controls. The budget is wall clock since
// Run() entry (RunOptions::time_budget_seconds): a phase or partition that
// starts late gets only what remains.
void BindRunControls(const RunOptions& options, const Stopwatch& run_watch,
                     RunContext& context) {
  context.cancel = options.cancel;
  if (options.time_budget_seconds > 0) {
    context.time_budget_seconds = std::max(
        options.time_budget_seconds - run_watch.ElapsedSeconds(), 1e-12);
  }
}

// What a valid option set runs: the approach with its config, and the
// unary IND verifier with its own (the approach itself, or nary_base under
// an expansion; null for the other kinds). Run adds extractor and pool.
struct ResolvedRun {
  const AlgorithmRegistry::Entry* approach = nullptr;
  const AlgorithmRegistry::Entry* verifier = nullptr;
  AlgorithmConfig config;
  AlgorithmConfig verify_config;
};

// ValidateRunOptions, keeping what it resolved for Run.
Result<ResolvedRun> ResolveRun(const RunOptions& options) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  ResolvedRun run;
  SPIDER_ASSIGN_OR_RETURN(run.approach, registry.Find(options.approach));
  // Resolved whatever the approach, so a misspelt base never hides behind
  // a run that does not read it.
  SPIDER_ASSIGN_OR_RETURN(const AlgorithmRegistry::Entry* base,
                          registry.Find(options.nary_base));
  const AlgorithmRegistry::Entry& approach = *run.approach;
  const AlgorithmCapabilities& capabilities = approach.capabilities;
  if (options.kind.has_value() && *options.kind != capabilities.kind) {
    const std::vector<std::string> names =
        registry.NamesForKind(*options.kind);
    return Status::InvalidArgument(
        "approach '" + approach.name + "' discovers " +
        std::string(KindName(capabilities.kind)) + "s, not " +
        std::string(KindName(*options.kind)) +
        "s (approaches for that kind: " +
        (names.empty() ? std::string("none") : JoinStrings(names, ", ")) +
        ")");
  }
  // An expansion is never a base; another kind's discoverer matters only
  // where an expansion reads the base.
  const AlgorithmCapabilities& base_capabilities = base->capabilities;
  if (base_capabilities.nary ||
      (capabilities.nary && base_capabilities.kind != DependencyKind::kInd)) {
    return Status::InvalidArgument(
        "nary_base must name a unary approach, got " +
        (base_capabilities.nary
             ? std::string("n-ary expansion")
             : std::string(KindName(base_capabilities.kind)) + " discoverer") +
        " '" + base->name + "'");
  }
  if (capabilities.nary) {
    run.verifier = base;
  } else if (capabilities.kind == DependencyKind::kInd) {
    run.verifier = run.approach;
  }

  AlgorithmConfig& config = run.config;
  config.max_open_files = options.max_open_files;
  config.min_coverage = options.min_coverage;
  config.max_nary_arity = options.nary_max_arity;
  config.error_threshold = options.error_threshold;
  config.max_lhs_arity = options.max_lhs_arity;
  config.block_skip = options.block_skip;
  if (run.verifier == nullptr) {
    // σ-coverage is an IND notion; the approximate kinds use the error
    // threshold instead, so reject the knob instead of ignoring it.
    if (options.min_coverage != 1.0) {
      return Status::InvalidArgument(
          "min_coverage (σ) applies to IND verification; use "
          "error_threshold for approximate " +
          std::string(KindName(capabilities.kind)) + " discovery");
    }
    SPIDER_RETURN_NOT_OK(AlgorithmRegistry::ValidateConfig(approach, config));
    return run;
  }
  if (capabilities.nary) {
    // The expansions verify exact tuple containment only: a σ-partial
    // unary base would feed non-exact INDs into an exact expansion.
    if (options.min_coverage < 1.0) {
      return Status::InvalidArgument(
          approach.name + " does not support partial (sigma < 1) coverage");
    }
    SPIDER_RETURN_NOT_OK(AlgorithmRegistry::ValidateConfig(approach, config));
  } else if (options.error_threshold != 0) {
    // Unary IND verification knows σ-partial coverage, not the g3' error
    // threshold (that knob drives the n-ary expansion and AFD discovery).
    return Status::InvalidArgument(
        "approach '" + approach.name +
        "' verifies unary INDs; use min_coverage (σ) for partial coverage "
        "instead of an error threshold");
  }
  // The unary phase stays exact: the g3' threshold parameterizes only an
  // expansion.
  run.verify_config = config;
  run.verify_config.error_threshold = 0;
  SPIDER_RETURN_NOT_OK(
      AlgorithmRegistry::ValidateConfig(*run.verifier, run.verify_config));
  return run;
}

// The run's attribute table: every attribute the generator measured,
// under a dense index, with the stats fingerprint its verdicts are keyed
// by. Built once per run; candidates then resolve by one hash lookup per
// side.
class RunAttributes {
 public:
  static constexpr uint32_t kMissing = std::numeric_limits<uint32_t>::max();

  explicit RunAttributes(const std::map<AttributeRef, ColumnStats>& stats) {
    index_.reserve(stats.size());
    keys_.reserve(stats.size());
    for (const auto& [attribute, column_stats] : stats) {
      index_.emplace(attribute, static_cast<uint32_t>(keys_.size()));
      keys_.push_back(ProfileStore::SideKey{
          &attribute, ProfileStore::StatsFingerprint(column_stats)});
    }
  }

  /// The index of `attribute`, or kMissing when it has no statistics.
  uint32_t Find(const AttributeRef& attribute) const {
    const auto it = index_.find(attribute);
    return it == index_.end() ? kMissing : it->second;
  }

  /// Index i's attribute and fingerprint, for resolving sides.
  const std::vector<ProfileStore::SideKey>& keys() const { return keys_; }

  static uint64_t Pack(uint32_t dependent, uint32_t referenced) {
    return (uint64_t{dependent} << 32) | referenced;
  }

 private:
  std::unordered_map<AttributeRef, uint32_t, AttributeRefHash> index_;
  std::vector<ProfileStore::SideKey> keys_;
};

}  // namespace

Status ValidateRunOptions(const RunOptions& options) {
  return ResolveRun(options).status();
}

std::vector<std::vector<IndCandidate>> PartitionCandidatesByComponent(
    const std::vector<IndCandidate>& candidates) {
  std::map<AttributeRef, size_t> attr_ids;
  auto id_for = [&attr_ids](const AttributeRef& attr) {
    return attr_ids.emplace(attr, attr_ids.size()).first->second;
  };
  std::vector<std::pair<size_t, size_t>> edges;
  edges.reserve(candidates.size());
  for (const IndCandidate& candidate : candidates) {
    edges.emplace_back(id_for(candidate.dependent),
                       id_for(candidate.referenced));
  }

  UnionFind components(attr_ids.size());
  for (const auto& [dep, ref] : edges) components.Union(dep, ref);

  // Partitions in order of first appearance; candidates keep input order.
  std::vector<std::vector<IndCandidate>> partitions;
  std::map<size_t, size_t> root_to_partition;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t root = components.Find(edges[i].first);
    auto [it, inserted] = root_to_partition.emplace(root, partitions.size());
    if (inserted) partitions.emplace_back();
    partitions[it->second].push_back(candidates[i]);
  }
  return partitions;
}

std::vector<std::vector<IndCandidate>> SplitPartitionsForParallelism(
    std::vector<std::vector<IndCandidate>> partitions, size_t target) {
  while (partitions.size() < target) {
    size_t largest = 0;
    for (size_t i = 1; i < partitions.size(); ++i) {
      if (partitions[i].size() > partitions[largest].size()) largest = i;
    }
    if (partitions[largest].size() < 2 * kMinSplitPartition) break;
    std::vector<IndCandidate>& whole = partitions[largest];
    const size_t half = whole.size() / 2;
    std::vector<IndCandidate> back(
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

SpiderSession::SpiderSession(const Catalog& catalog, SessionOptions options)
    : catalog_(&catalog), options_(std::move(options)) {}

SpiderSession::SpiderSession(std::unique_ptr<Catalog> catalog,
                             SessionOptions options)
    : catalog_(catalog.get()),
      owned_catalog_(std::move(catalog)),
      options_(std::move(options)) {}

Result<ValueSetExtractor*> SpiderSession::extractor() {
  // Serialized: two concurrent Run() calls (the spiderd configuration) must
  // not both materialize a workspace and leak one of them.
  MutexLock lock(&mutex_);
  if (extractor_ == nullptr) {
    std::filesystem::path work_dir;
    if (options_.work_dir.empty()) {
      SPIDER_ASSIGN_OR_RETURN(temp_dir_, TempDir::Make("spider-session"));
      work_dir = temp_dir_->path();
    } else {
      work_dir = options_.work_dir;
    }
    ValueSetExtractorOptions extractor_options;
    extractor_options.sort_memory_budget_bytes =
        options_.sort_memory_budget_bytes;
    extractor_options.persist_profile = options_.persist_profile;
    extractor_ =
        std::make_unique<ValueSetExtractor>(work_dir, extractor_options);
  }
  return extractor_.get();
}

Result<IndRunResult> SpiderSession::RunParallel(
    const RunOptions& options, const std::string& approach,
    const AlgorithmConfig& config, const std::vector<IndCandidate>& candidates,
    ThreadPool& pool, const Stopwatch& run_watch, SessionReport* report) {
  std::vector<std::vector<IndCandidate>> partitions =
      PartitionCandidatesByComponent(candidates);
  // A collapsed candidate graph (few components) would idle most workers;
  // oversubscribing the pool slightly lets it balance uneven partitions.
  const size_t threads = static_cast<size_t>(pool.size());
  if (partitions.size() < threads) {
    partitions = SplitPartitionsForParallelism(std::move(partitions), threads);
  }
  report->partitions = static_cast<int>(partitions.size());
  const double verify_start = run_watch.ElapsedSeconds();
  auto verify_seconds = [&run_watch, verify_start] {
    return run_watch.ElapsedSeconds() - verify_start;
  };

  // Concurrent partitions extract through the thread-safe cache; priming
  // it up front on the pool parallelizes the sort work itself instead of
  // serializing it behind whichever partition asks first. Extraction wants
  // every worker even when the candidate graph collapsed to few
  // partitions — the per-attribute sorts dominate and parallelize
  // regardless of how the verification phase partitions.
  if (config.extractor != nullptr) {
    std::set<AttributeRef> seen;
    std::vector<AttributeRef> attributes;
    for (const IndCandidate& candidate : candidates) {
      if (seen.insert(candidate.dependent).second) {
        attributes.push_back(candidate.dependent);
      }
      if (seen.insert(candidate.referenced).second) {
        attributes.push_back(candidate.referenced);
      }
    }
    SPIDER_RETURN_NOT_OK(
        config.extractor->ExtractAll(*catalog_, attributes, &pool).status());
  }

  // Progress aggregation: per-partition contexts report partition-local
  // (done, total); deltas fold into shared counters and the user callback
  // sees run-wide, monotonically consistent numbers. One mutex guards both
  // the counters and the callback so no observer sees progress regress.
  // RunBatch returns only after every task ended, so tasks may capture
  // locals by reference.
  struct ProgressAggregator {
    Mutex mutex;
    int64_t done SPIDER_GUARDED_BY(mutex) = 0;
    int64_t total SPIDER_GUARDED_BY(mutex) = 0;
  } aggregator;

  // Seed the aggregate total with each partition's candidate count so the
  // first callbacks already see a run-wide denominator; when a partition
  // begins and reports its real total (some algorithms count blocks, not
  // candidates), the delta below corrects the seed.
  if (options.progress) {
    // No worker can race yet; locked anyway so the guarded-field invariant
    // holds unconditionally (uncontended locks are cheap).
    MutexLock lock(&aggregator.mutex);
    for (const std::vector<IndCandidate>& partition : partitions) {
      aggregator.total += static_cast<int64_t>(partition.size());
    }
  }

  // A partition the budget or a cancel stops before it starts is skipped;
  // one picked up late only gets what remains of the budget.
  RunContext batch_context;
  BindRunControls(options, run_watch, batch_context);
  batch_context.Begin(static_cast<int64_t>(partitions.size()));
  SPIDER_ASSIGN_OR_RETURN(
      BatchOutcome<Ind> outcome,
      RunBatch<Ind>(
          &pool, partitions.size(), batch_context,
          [&](size_t i) -> Result<BatchOutcome<Ind>> {
            const std::vector<IndCandidate>& partition = partitions[i];
            SPIDER_ASSIGN_OR_RETURN(
                std::unique_ptr<IndAlgorithm> algorithm,
                AlgorithmRegistry::Global().Create(approach, config));
            RunContext context;
            BindRunControls(options, run_watch, context);
            if (options.progress) {
              // last_done/last_total are per-partition state, only touched
              // by the partition's own thread. last_total starts at the
              // candidate-count seed folded into the aggregate above.
              context.progress =
                  [&aggregator, &options, &verify_seconds,
                   last_done = int64_t{0},
                   last_total = static_cast<int64_t>(partition.size())](
                      const RunProgress& partition_progress) mutable {
                    MutexLock lock(&aggregator.mutex);
                    aggregator.done += partition_progress.done - last_done;
                    aggregator.total += partition_progress.total - last_total;
                    last_done = partition_progress.done;
                    last_total = partition_progress.total;
                    options.progress(RunProgress{aggregator.done,
                                                 aggregator.total,
                                                 verify_seconds()});
                  };
            }
            SPIDER_ASSIGN_OR_RETURN(
                IndRunResult result,
                algorithm->Run(*catalog_, partition, context));
            BatchOutcome<Ind> partial;
            partial.found = std::move(result.satisfied);
            partial.counters = result.counters;
            partial.finished = result.finished;
            return partial;
          }));

  // Folded in partition order; peak_open_files is the concurrent
  // high-water bound over the partitions (ApplyConcurrentPeakBound).
  IndRunResult merged;
  merged.satisfied = std::move(outcome.found);
  merged.counters = outcome.counters;
  merged.finished = outcome.finished;
  merged.seconds = verify_seconds();
  return merged;
}

Status SpiderSession::VerifyUnary(const RunOptions& options,
                                  const AlgorithmRegistry::Entry& verifier,
                                  const AlgorithmConfig& config,
                                  ThreadPool* pool, const Stopwatch& run_watch,
                                  SessionReport* report,
                                  bool* verdicts_recorded) {
  const double generation_start = run_watch.ElapsedSeconds();
  CandidateGenerator generator(options.generator);
  SPIDER_ASSIGN_OR_RETURN(report->candidates, generator.Generate(*catalog_));
  report->generation_seconds = run_watch.ElapsedSeconds() - generation_start;

  // Delta revalidation against the persisted profile: a verdict remembered
  // under the exact statistics both attributes still carry holds for any
  // exact (σ = 1) approach — verification order and algorithm choice never
  // change an IND's truth. Candidates whose data moved (fingerprint
  // mismatch) or that were never decided go to the algorithm as usual.
  ProfileStore* profile =
      config.extractor != nullptr ? config.extractor->profile() : nullptr;
  const bool delta_eligible =
      profile != nullptr && options.profile_cache && options.min_coverage >= 1.0;
  const std::vector<IndCandidate>& candidates = report->candidates.candidates;
  // What the algorithm decides: every candidate, or — when the profile
  // answered some — a copy of the rest.
  const std::vector<IndCandidate>* to_verify = &candidates;
  std::vector<IndCandidate> unanswered;
  std::vector<Ind> reused_inds;
  // Run attribute indices of each candidate in `*to_verify` (delta runs
  // only), so recording needs no second name lookup.
  std::vector<std::pair<uint32_t, uint32_t>> to_verify_attributes;
  std::optional<RunAttributes> attributes;
  std::vector<ProfileStore::SideId> sides;  // by run attribute index
  if (delta_eligible) {
    // Each distinct attribute is fingerprinted and resolved against the
    // profile once; per candidate that leaves one name lookup per side and
    // one id-pair lookup, all pairs under one store lock.
    attributes.emplace(report->candidates.stats);
    sides = profile->InternSides(attributes->keys());
    std::vector<std::pair<ProfileStore::SideId, ProfileStore::SideId>> pairs;
    to_verify_attributes.reserve(candidates.size());
    pairs.reserve(candidates.size());
    auto side_of = [&sides](uint32_t index) {
      return index == RunAttributes::kMissing ? ProfileStore::kNoSide
                                              : sides[index];
    };
    for (const IndCandidate& candidate : candidates) {
      const uint32_t dependent = attributes->Find(candidate.dependent);
      const uint32_t referenced = attributes->Find(candidate.referenced);
      to_verify_attributes.emplace_back(dependent, referenced);
      pairs.emplace_back(side_of(dependent), side_of(referenced));
    }
    const std::vector<std::optional<bool>> verdicts =
        profile->FindVerdicts(pairs);
    size_t kept = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!verdicts[i].has_value()) {
        to_verify_attributes[kept++] = to_verify_attributes[i];
        continue;
      }
      ++report->verdicts_reused;
      if (*verdicts[i]) {
        reused_inds.push_back(
            Ind{candidates[i].dependent, candidates[i].referenced});
      }
    }
    to_verify_attributes.resize(kept);
    if (kept < candidates.size()) {
      unanswered.reserve(kept);
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (!verdicts[i].has_value()) unanswered.push_back(candidates[i]);
      }
      to_verify = &unanswered;
    }
  }
  report->candidates_revalidated = static_cast<int64_t>(to_verify->size());

  const bool parallel = pool != nullptr && to_verify->size() >= 2;
  report->threads_used = parallel ? pool->size() : 1;
  if (to_verify->empty()) {
    // Everything was answered from the profile (or there were no
    // candidates): report->run stays at its finished, zero-work default.
  } else if (parallel) {
    SPIDER_ASSIGN_OR_RETURN(report->run,
                            RunParallel(options, verifier.name, config,
                                        *to_verify, *pool, run_watch, report));
  } else {
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<IndAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create(verifier.name, config));
    RunContext context;
    BindRunControls(options, run_watch, context);
    context.progress = options.progress;
    SPIDER_ASSIGN_OR_RETURN(report->run,
                            algorithm->Run(*catalog_, *to_verify, context));
  }

  // The algorithm read set files from a directory that other runs may
  // share. If one was replaced mid-run by a run at another commit, this
  // run may have read that run's bytes: fail, recording nothing.
  if (config.extractor != nullptr && !to_verify->empty()) {
    SPIDER_RETURN_NOT_OK(config.extractor->CheckSetsUnchanged());
  }
  if (delta_eligible && report->run.finished && !to_verify->empty()) {
    // Only finished runs decide every submitted candidate; a budget- or
    // cancellation-truncated satisfied set must not be remembered as
    // "unsatisfied". Membership is tested on run attribute index pairs.
    std::unordered_set<uint64_t> satisfied;
    satisfied.reserve(report->run.satisfied.size());
    for (const Ind& ind : report->run.satisfied) {
      satisfied.insert(RunAttributes::Pack(attributes->Find(ind.dependent),
                                           attributes->Find(ind.referenced)));
    }
    std::vector<ProfileStore::SideVerdict> verdicts;
    verdicts.reserve(to_verify_attributes.size());
    for (const auto& [dependent, referenced] : to_verify_attributes) {
      if (dependent == RunAttributes::kMissing ||
          referenced == RunAttributes::kMissing) {
        continue;
      }
      verdicts.push_back(ProfileStore::SideVerdict{
          sides[dependent], sides[referenced],
          satisfied.contains(RunAttributes::Pack(dependent, referenced))});
    }
    profile->PutVerdicts(verdicts);
    if (!verdicts.empty()) *verdicts_recorded = true;
  }

  report->run.satisfied.insert(report->run.satisfied.end(),
                               std::make_move_iterator(reused_inds.begin()),
                               std::make_move_iterator(reused_inds.end()));
  // One canonical order regardless of approach, partitioning, thread count
  // or verdict reuse: every configuration returns byte-identical reports.
  report->run.satisfied = SortedInds(std::move(report->run.satisfied));
  return Status::OK();
}

Result<SessionReport> SpiderSession::Run(const RunOptions& options) {
  // The run's one clock: it times the report and bounds the budget.
  Stopwatch run_watch;
  run_watch.Start();
  // Validate before any work: a rejected option set creates no workspace
  // and loads no profile. IND runs verify unary candidates with
  // `verifier`; the other kinds enumerate their own lattices.
  SPIDER_ASSIGN_OR_RETURN(ResolvedRun resolved, ResolveRun(options));
  const AlgorithmRegistry::Entry& approach = *resolved.approach;
  const AlgorithmRegistry::Entry* const verifier = resolved.verifier;
  const AlgorithmCapabilities& capabilities = approach.capabilities;
  AlgorithmConfig& config = resolved.config;

  // The extractor is only materialized for approaches that need it; the
  // unary phase reads sets only when its own approach does.
  const bool verifier_reads_sets =
      verifier != nullptr && verifier->capabilities.needs_extractor;
  if (capabilities.needs_extractor || verifier_reads_sets) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  if (verifier_reads_sets) resolved.verify_config.extractor = config.extractor;

  const int threads = ThreadPool::ResolveThreadCount(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    config.pool = pool.get();
  }

  // Extraction happens inside the session's cache, outside every
  // algorithm's counters: each phase's share folds into its own result.
  ValueSetExtractor* const sets = config.extractor;
  const int64_t extracted_at_start = sets ? sets->sets_extracted() : 0;
  int64_t extracted_mark = extracted_at_start;
  int64_t reused_mark = sets ? sets->sets_reused() : 0;
  auto fold_extraction = [&](RunCounters& counters) {
    if (sets == nullptr) return;
    const int64_t extracted = sets->sets_extracted();
    const int64_t reused = sets->sets_reused();
    counters.sets_extracted += extracted - extracted_mark;
    counters.sets_reused += reused - reused_mark;
    extracted_mark = extracted;
    reused_mark = reused;
  };

  SessionReport report;
  report.approach = options.approach;
  report.kind = capabilities.kind;
  bool verdicts_recorded = false;
  if (verifier != nullptr) {
    SPIDER_RETURN_NOT_OK(VerifyUnary(options, *verifier,
                                     resolved.verify_config, pool.get(),
                                     run_watch, &report, &verdicts_recorded));
    fold_extraction(report.run.counters);
  }
  if (capabilities.nary) {
    report.nary = true;
    report.nary_base = options.nary_base;
    // A unary phase cut short by the budget or a cancellation leaves the
    // expansion untried: its input would be an incomplete unary set.
    // Otherwise per-level batches (levelwise) / independent table pairs
    // (clique, zigzag) dispatch onto the pool.
    report.nary_run.finished = false;
    if (report.run.finished) {
      SPIDER_ASSIGN_OR_RETURN(
          std::unique_ptr<NaryAlgorithm> algorithm,
          AlgorithmRegistry::Global().Create<NaryAlgorithm>(approach.name,
                                                            config));
      RunContext context;
      BindRunControls(options, run_watch, context);
      context.progress = options.progress;
      SPIDER_ASSIGN_OR_RETURN(
          report.nary_run,
          algorithm->Run(*catalog_, report.run.satisfied, context));
      if (sets != nullptr) SPIDER_RETURN_NOT_OK(sets->CheckSetsUnchanged());
      fold_extraction(report.nary_run.counters);
    }
  } else if (verifier == nullptr) {
    // UCC/FD/AFD: no candidate generation — the discoverer enumerates its
    // own lattice per table, on the pool.
    report.threads_used = threads;
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<DependencyAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create<DependencyAlgorithm>(approach.name,
                                                                config));
    RunContext context;
    BindRunControls(options, run_watch, context);
    context.progress = options.progress;
    SPIDER_ASSIGN_OR_RETURN(report.dependency,
                            algorithm->Run(*catalog_, context));
    if (sets != nullptr) SPIDER_RETURN_NOT_OK(sets->CheckSetsUnchanged());
    fold_extraction(report.dependency.counters);
  }
  report.profile_reused = report.verdicts_reused > 0 ||
                          report.run.counters.sets_reused > 0 ||
                          report.nary_run.counters.sets_reused > 0 ||
                          report.dependency.counters.sets_reused > 0;

  // Seal: commit fresh verdicts and freshly recorded set files. The
  // profile is a cache, so a failed save (read-only workspace, disk full)
  // is reported, not fatal — the next session recomputes instead.
  if (sets != nullptr && sets->profile() != nullptr &&
      (verdicts_recorded || sets->sets_extracted() != extracted_at_start)) {
    const Status saved = sets->SaveProfile();
    if (!saved.ok()) report.profile_save_error = saved.ToString();
  }
  report.total_seconds = run_watch.ElapsedSeconds();
  return report;
}

std::string SessionReport::ToString() const {
  const std::string save_error =
      profile_save_error.empty()
          ? ""
          : "profile save:    FAILED (" + profile_save_error + ")\n";
  std::string out;
  out += "approach:        " + approach + "\n";
  out += "kind:            " + std::string(KindName(kind)) + "\n";
  if (kind != DependencyKind::kInd) {
    const bool fds = kind != DependencyKind::kUcc;
    const int64_t found = static_cast<int64_t>(
        fds ? dependency.fds.size() : dependency.uccs.size());
    out += std::string(fds ? "FDs found:       " : "UCCs found:      ") +
           FormatWithCommas(found) + "\n";
    out += "tests:           " + FormatWithCommas(dependency.tests) + "\n";
    out += "finished:        " +
           std::string(dependency.finished ? "yes" : "NO (budget)") + "\n";
    if (threads_used > 1) {
      out += "threads:         " + std::to_string(threads_used) + "\n";
    }
    out += "test time:       " + Stopwatch::FormatDuration(dependency.seconds) +
           "\n";
    out += "total time:      " + Stopwatch::FormatDuration(total_seconds) +
           "\n";
    out += "counters:        " + dependency.counters.ToString() + "\n";
    out += save_error;
    for (const Ucc& ucc : dependency.uccs) {
      out += "  " + ucc.ToString() + "\n";
    }
    for (const Fd& fd : dependency.fds) {
      out += "  " + fd.ToString();
      if (kind == DependencyKind::kAfd) {
        out += " [error " + std::to_string(fd.error) + "]";
      }
      out += "\n";
    }
    return out;
  }
  if (nary) out += "unary base:      " + nary_base + "\n";
  out += "raw pairs:       " + FormatWithCommas(candidates.raw_pair_count) + "\n";
  out += "pretest pruned:  " + FormatWithCommas(candidates.total_pruned()) + "\n";
  out += "candidates:      " +
         FormatWithCommas(static_cast<int64_t>(candidates.candidates.size())) +
         "\n";
  out += "satisfied INDs:  " +
         FormatWithCommas(static_cast<int64_t>(run.satisfied.size())) + "\n";
  out += "finished:        " + std::string(run.finished ? "yes" : "NO (budget)") +
         "\n";
  if (threads_used > 1) {
    out += "threads:         " + std::to_string(threads_used) + " (" +
           std::to_string(partitions) + " partitions)\n";
  }
  if (profile_reused) {
    out += "profile:         reused " + FormatWithCommas(verdicts_reused) +
           " verdicts, revalidated " + FormatWithCommas(candidates_revalidated) +
           " candidates\n";
  }
  out += "generation time: " + Stopwatch::FormatDuration(generation_seconds) + "\n";
  out += "test time:       " + Stopwatch::FormatDuration(run.seconds) + "\n";
  out += "total time:      " + Stopwatch::FormatDuration(total_seconds) + "\n";
  out += "counters:        " + run.counters.ToString() + "\n";
  out += save_error;
  if (nary) {
    out += "n-ary INDs (" +
           FormatWithCommas(static_cast<int64_t>(nary_run.satisfied.size())) +
           ", " + FormatWithCommas(nary_run.tests) + " tests" +
           (nary_run.finished ? "" : ", PARTIAL") + "):\n";
    for (const NaryInd& ind : nary_run.satisfied) {
      out += "  " + ind.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace spider
