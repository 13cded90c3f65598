#include "src/ind/session.h"

#include <algorithm>
#include <future>
#include <map>
#include <numeric>
#include <set>
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

// Every option rule the resolved approaches impose, checked before any
// candidate is generated. `verifier` is the unary IND approach (the
// approach itself, or nary_base under an expansion), null for the other
// kinds; `config` / `verify_config` are what the approach / verifier will
// be created with.
Status ValidateRun(const RunOptions& options,
                   const AlgorithmRegistry::Entry& approach,
                   const AlgorithmRegistry::Entry* verifier,
                   const AlgorithmConfig& config,
                   const AlgorithmConfig& verify_config, bool out_of_core) {
  const AlgorithmCapabilities& capabilities = approach.capabilities;
  if (options.kind.has_value() && *options.kind != capabilities.kind) {
    const std::vector<std::string> names =
        AlgorithmRegistry::Global().NamesForKind(*options.kind);
    return Status::InvalidArgument(
        "approach '" + approach.name + "' discovers " +
        std::string(KindName(capabilities.kind)) + "s, not " +
        std::string(KindName(*options.kind)) +
        "s (approaches for that kind: " +
        (names.empty() ? std::string("none") : JoinStrings(names, ", ")) +
        ")");
  }
  for (const AlgorithmRegistry::Entry* entry : {&approach, verifier}) {
    if (entry != nullptr && out_of_core &&
        !entry->capabilities.supports_out_of_core) {
      return Status::InvalidArgument(
          "approach '" + entry->name +
          "' random-accesses materialized columns and cannot profile an "
          "out-of-core (disk-backend) catalog");
    }
  }
  if (verifier == nullptr) {
    // σ-coverage is an IND notion; the approximate kinds use the error
    // threshold instead, so reject the knob instead of ignoring it.
    if (options.min_coverage != 1.0) {
      return Status::InvalidArgument(
          "min_coverage (σ) applies to IND verification; use "
          "error_threshold for approximate " +
          std::string(KindName(capabilities.kind)) + " discovery");
    }
    return AlgorithmRegistry::ValidateConfig(approach, config);
  }
  if (capabilities.nary) {
    // The expansions verify exact tuple containment only: a σ-partial
    // unary base would feed non-exact INDs into an exact expansion.
    if (options.min_coverage < 1.0) {
      return Status::InvalidArgument(
          approach.name + " does not support partial (sigma < 1) coverage");
    }
    const AlgorithmCapabilities& base = verifier->capabilities;
    if (base.kind != DependencyKind::kInd || base.nary) {
      return Status::InvalidArgument(
          "nary_base must name a unary approach, got " +
          (base.nary ? std::string("n-ary expansion")
                     : std::string(KindName(base.kind)) + " discoverer") +
          " '" + verifier->name + "'");
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
  return AlgorithmRegistry::ValidateConfig(*verifier, verify_config);
}

}  // namespace

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
  struct ProgressAggregator {
    Mutex mutex;
    int64_t done SPIDER_GUARDED_BY(mutex) = 0;
    int64_t total SPIDER_GUARDED_BY(mutex) = 0;
  };
  auto aggregator = std::make_shared<ProgressAggregator>();

  // Seed the aggregate total with each partition's candidate count so the
  // first callbacks already see a run-wide denominator; when a partition
  // begins and reports its real total (some algorithms count blocks, not
  // candidates), the delta below corrects the seed.
  if (options.progress) {
    // No worker can race yet; locked anyway so the guarded-field invariant
    // holds unconditionally (uncontended locks are cheap).
    MutexLock lock(&aggregator->mutex);
    for (const std::vector<IndCandidate>& partition : partitions) {
      aggregator->total += static_cast<int64_t>(partition.size());
    }
  }

  std::vector<std::future<Result<IndRunResult>>> futures;
  futures.reserve(partitions.size());
  for (const std::vector<IndCandidate>& partition : partitions) {
    futures.push_back(pool.Submit([this, &options, &approach, &config,
                                   &partition, &run_watch, &verify_seconds,
                                   aggregator]() -> Result<IndRunResult> {
      SPIDER_ASSIGN_OR_RETURN(
          std::unique_ptr<IndAlgorithm> algorithm,
          AlgorithmRegistry::Global().Create(approach, config));
      // A partition picked up late only gets what remains of the budget.
      RunContext context;
      BindRunControls(options, run_watch, context);
      if (options.progress) {
        // last_done/last_total are per-lambda (per-partition) state, only
        // touched by the partition's own thread. last_total starts at the
        // candidate-count seed folded into the aggregate above.
        context.progress = [aggregator, &options, &verify_seconds,
                            last_done = int64_t{0},
                            last_total = static_cast<int64_t>(partition.size())](
                               const RunProgress& partition_progress) mutable {
          MutexLock lock(&aggregator->mutex);
          aggregator->done += partition_progress.done - last_done;
          aggregator->total += partition_progress.total - last_total;
          last_done = partition_progress.done;
          last_total = partition_progress.total;
          options.progress(RunProgress{aggregator->done, aggregator->total,
                                       verify_seconds()});
        };
      }
      return algorithm->Run(*catalog_, partition, context);
    }));
  }

  // Wait for every partition before touching any result: tasks capture
  // locals by reference.
  std::vector<Result<IndRunResult>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());

  IndRunResult merged;
  std::vector<int64_t> partition_peaks;
  partition_peaks.reserve(results.size());
  for (Result<IndRunResult>& result : results) {
    SPIDER_RETURN_NOT_OK(result.status());
    IndRunResult& partial = *result;
    merged.satisfied.insert(merged.satisfied.end(),
                            std::make_move_iterator(partial.satisfied.begin()),
                            std::make_move_iterator(partial.satisfied.end()));
    partition_peaks.push_back(partial.counters.peak_open_files);
    merged.counters.Merge(partial.counters);
    merged.finished = merged.finished && partial.finished;
  }
  // Concurrent partitions hold their files simultaneously, but at most
  // `threads` of them at once — the high-water bound is the sum of the
  // largest min(threads, partitions) per-partition peaks, not the sum over
  // all partitions (ApplyConcurrentPeakBound) nor the max Merge() keeps.
  ApplyConcurrentPeakBound(&pool, std::move(partition_peaks),
                           merged.counters);
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
  std::map<AttributeRef, uint64_t> attr_fps;
  auto fingerprint_of = [&](const AttributeRef& attr) -> const uint64_t* {
    const auto cached = attr_fps.find(attr);
    if (cached != attr_fps.end()) return &cached->second;
    const auto stats = report->candidates.stats.find(attr);
    if (stats == report->candidates.stats.end()) return nullptr;
    return &attr_fps
                .emplace(attr, ProfileStore::StatsFingerprint(stats->second))
                .first->second;
  };
  std::vector<IndCandidate> to_verify;
  std::vector<Ind> reused_inds;
  if (delta_eligible) {
    for (const IndCandidate& candidate : report->candidates.candidates) {
      const uint64_t* dep_fp = fingerprint_of(candidate.dependent);
      const uint64_t* ref_fp = fingerprint_of(candidate.referenced);
      std::optional<ProfileVerdict> verdict;
      if (dep_fp != nullptr && ref_fp != nullptr) {
        verdict =
            profile->FindVerdict(candidate.dependent, candidate.referenced);
      }
      if (verdict.has_value() && verdict->dependent_fingerprint == *dep_fp &&
          verdict->referenced_fingerprint == *ref_fp) {
        ++report->verdicts_reused;
        if (verdict->satisfied) {
          reused_inds.push_back(Ind{candidate.dependent, candidate.referenced});
        }
      } else {
        to_verify.push_back(candidate);
      }
    }
  } else {
    to_verify = report->candidates.candidates;
  }
  report->candidates_revalidated = static_cast<int64_t>(to_verify.size());

  const bool parallel = pool != nullptr &&
                        verifier.capabilities.parallel_safe &&
                        to_verify.size() >= 2;
  report->threads_used = parallel ? pool->size() : 1;
  if (to_verify.empty()) {
    // Everything was answered from the profile (or there were no
    // candidates): report->run stays at its finished, zero-work default.
  } else if (parallel) {
    SPIDER_ASSIGN_OR_RETURN(report->run,
                            RunParallel(options, verifier.name, config,
                                        to_verify, *pool, run_watch, report));
  } else {
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<IndAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create(verifier.name, config));
    RunContext context;
    BindRunControls(options, run_watch, context);
    context.progress = options.progress;
    SPIDER_ASSIGN_OR_RETURN(report->run,
                            algorithm->Run(*catalog_, to_verify, context));
  }

  if (delta_eligible && report->run.finished && !to_verify.empty()) {
    // Only finished runs decide every submitted candidate; a budget- or
    // cancellation-truncated satisfied set must not be remembered as
    // "unsatisfied".
    const std::set<Ind> satisfied(report->run.satisfied.begin(),
                                  report->run.satisfied.end());
    for (const IndCandidate& candidate : to_verify) {
      const uint64_t* dep_fp = fingerprint_of(candidate.dependent);
      const uint64_t* ref_fp = fingerprint_of(candidate.referenced);
      if (dep_fp == nullptr || ref_fp == nullptr) continue;
      ProfileVerdict verdict;
      verdict.satisfied =
          satisfied.count(Ind{candidate.dependent, candidate.referenced}) > 0;
      verdict.dependent_fingerprint = *dep_fp;
      verdict.referenced_fingerprint = *ref_fp;
      profile->PutVerdict(candidate.dependent, candidate.referenced, verdict);
      *verdicts_recorded = true;
    }
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
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();

  // Resolve — a bad name fails before any work. IND runs verify unary
  // candidates with `verifier`: the approach itself, or nary_base under an
  // n-ary expansion. The other kinds enumerate their own lattices.
  SPIDER_ASSIGN_OR_RETURN(const AlgorithmRegistry::Entry* approach,
                          registry.Find(options.approach));
  const AlgorithmCapabilities& capabilities = approach->capabilities;
  const AlgorithmRegistry::Entry* verifier = nullptr;
  if (capabilities.nary) {
    SPIDER_ASSIGN_OR_RETURN(verifier, registry.Find(options.nary_base));
  } else if (capabilities.kind == DependencyKind::kInd) {
    verifier = approach;
  }
  const bool verifier_reads_sets =
      verifier != nullptr && verifier->capabilities.needs_extractor;

  AlgorithmConfig config;
  config.max_open_files = options.max_open_files;
  config.min_coverage = options.min_coverage;
  config.max_nary_arity = options.nary_max_arity;
  config.error_threshold = options.error_threshold;
  config.max_lhs_arity = options.max_lhs_arity;
  config.block_skip = options.block_skip;
  // The extractor is only materialized for approaches that need it.
  if (capabilities.needs_extractor || verifier_reads_sets) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  // The unary phase stays exact — the g3' threshold parameterizes only an
  // expansion — and reads sets only when its own approach does.
  AlgorithmConfig verify_config = config;
  verify_config.error_threshold = 0;
  if (!verifier_reads_sets) verify_config.extractor = nullptr;

  SPIDER_RETURN_NOT_OK(ValidateRun(options, *approach, verifier, config,
                                   verify_config, catalog_->out_of_core()));

  const int threads = ThreadPool::ResolveThreadCount(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    if (capabilities.parallel_safe) config.pool = pool.get();
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
    SPIDER_RETURN_NOT_OK(VerifyUnary(options, *verifier, verify_config,
                                     pool.get(), run_watch, &report,
                                     &verdicts_recorded));
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
          registry.Create<NaryAlgorithm>(approach->name, config));
      RunContext context;
      BindRunControls(options, run_watch, context);
      context.progress = options.progress;
      SPIDER_ASSIGN_OR_RETURN(
          report.nary_run,
          algorithm->Run(*catalog_, report.run.satisfied, context));
      fold_extraction(report.nary_run.counters);
    }
  } else if (verifier == nullptr) {
    // UCC/FD/AFD: no candidate generation — the discoverer enumerates its
    // own lattice per table, on the pool when it is parallel-safe.
    report.threads_used = config.pool != nullptr ? threads : 1;
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<DependencyAlgorithm> algorithm,
        registry.Create<DependencyAlgorithm>(approach->name, config));
    RunContext context;
    BindRunControls(options, run_watch, context);
    context.progress = options.progress;
    SPIDER_ASSIGN_OR_RETURN(report.dependency,
                            algorithm->Run(*catalog_, context));
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
