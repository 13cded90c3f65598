#include "src/ind/session.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
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
    config.max_open_files = 0;
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
  // expansion, and the open-file budget only the unary verifier.
  run.verify_config = config;
  run.verify_config.error_threshold = 0;
  run.verify_config.max_open_files = options.max_open_files;
  SPIDER_RETURN_NOT_OK(
      AlgorithmRegistry::ValidateConfig(*run.verifier, run.verify_config));
  return run;
}

// Runs one phase on the run's `context`: starts its progress count at
// `total` (0 = unknown), times it on the run's clock and, with `sets`,
// fails it, recording nothing, if a set file it read was replaced
// meanwhile by a run at another commit of the shared directory. The
// phase's result is final as returned but for the seconds.
template <typename PhaseResult, typename Phase>
Status RunPhase(RunContext& context, const ValueSetExtractor* sets,
                int64_t total, PhaseResult* result, Phase&& phase) {
  const double start = context.elapsed_seconds();
  context.Begin(total);
  SPIDER_ASSIGN_OR_RETURN(*result, phase());
  result->seconds = context.elapsed_seconds() - start;
  return sets == nullptr ? Status::OK() : sets->CheckSetsUnchanged();
}

// Has `sets` sort (or reuse) the set of every attribute `candidates` name,
// one task per attribute on `pool`, so concurrent partitions find them in
// the cache instead of serializing the sorts behind whichever partition
// asks first. A batch like any other: a task the budget or a cancel stops
// before it starts sorts nothing, and each set counts in the result.
Result<RunResult<AttributePair>> PrimeSets(
    const Catalog& catalog, ValueSetExtractor& sets,
    const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, ThreadPool* pool,
    const RunContext& context) {
  std::vector<bool> named(attributes.size(), false);
  std::vector<AttributeId> to_extract;
  for (const AttributePair& candidate : candidates) {
    for (const AttributeId id : {candidate.dependent, candidate.referenced}) {
      if (named[id]) continue;
      named[id] = true;
      to_extract.push_back(id);
    }
  }
  return RunBatch<AttributePair>(
      pool, to_extract.size(), context,
      [&](size_t i) -> Result<RunResult<AttributePair>> {
        RunResult<AttributePair> primed;
        SPIDER_RETURN_NOT_OK(
            sets.Extract(catalog, attributes[to_extract[i]], &primed.counters)
                .status());
        return primed;
      });
}

}  // namespace

Status ValidateRunOptions(const RunOptions& options) {
  return ResolveRun(options).status();
}

std::vector<std::vector<AttributePair>> PartitionCandidatesByComponent(
    size_t attribute_count, const std::vector<AttributePair>& candidates) {
  UnionFind components(attribute_count);
  for (const AttributePair& candidate : candidates) {
    components.Union(candidate.dependent, candidate.referenced);
  }

  // Partitions in order of first appearance; candidates keep input order.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<size_t> partition_of_root(attribute_count, kNone);
  std::vector<std::vector<AttributePair>> partitions;
  for (const AttributePair& candidate : candidates) {
    size_t& partition = partition_of_root[components.Find(candidate.dependent)];
    if (partition == kNone) {
      partition = partitions.size();
      partitions.emplace_back();
    }
    partitions[partition].push_back(candidate);
  }
  return partitions;
}

std::vector<std::vector<IndCandidate>> PartitionCandidatesByComponent(
    const std::vector<IndCandidate>& candidates) {
  const InternedCandidates interned = InternCandidates(candidates);
  std::vector<std::vector<IndCandidate>> partitions;
  for (const std::vector<AttributePair>& partition :
       PartitionCandidatesByComponent(interned.attributes.size(),
                                      interned.pairs)) {
    partitions.push_back(
        NamePairs<IndCandidate>(interned.attributes, partition));
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

Status SpiderSession::VerifyUnary(const RunOptions& options,
                                  const AlgorithmRegistry::Entry& verifier,
                                  const AlgorithmConfig& config,
                                  ProfileStore* profile, ThreadPool* pool,
                                  RunContext& context, SessionReport* report,
                                  bool* verdicts_recorded) {
  const double generation_start = context.elapsed_seconds();
  CandidateGenerator generator(options.generator);
  SPIDER_ASSIGN_OR_RETURN(report->candidates,
                          generator.GenerateGraph(*catalog_));
  report->generation_seconds = context.elapsed_seconds() - generation_start;
  const std::vector<AttributeRef>& attributes = report->candidates.attributes;
  const std::vector<AttributePair>& candidates = report->candidates.candidates;

  // Delta revalidation against the persisted profile: a verdict remembered
  // under the exact statistics both attributes still carry holds for any
  // exact (σ = 1) approach — verification order and algorithm choice never
  // change an IND's truth. Candidates whose data moved (fingerprint
  // mismatch) or that were never decided go to the algorithm as usual.
  const bool delta_eligible =
      profile != nullptr && options.profile_cache && options.min_coverage >= 1.0;
  // What the algorithm decides: every candidate, or — when the profile
  // answered some — a copy of the rest. Either way a subsequence of the
  // generator's list, so sorted by id pair.
  const std::vector<AttributePair>* to_verify = &candidates;
  std::vector<AttributePair> unanswered;
  std::vector<AttributePair> satisfied;  // reused from the profile, then all
  std::vector<ProfileStore::SideId> sides;  // by attribute id
  if (delta_eligible) {
    // Each attribute is fingerprinted and resolved against the profile
    // once; per candidate that leaves one id-pair lookup, all pairs under
    // one store lock.
    std::vector<ProfileStore::SideKey> keys;
    keys.reserve(attributes.size());
    for (size_t id = 0; id < attributes.size(); ++id) {
      keys.push_back(ProfileStore::SideKey{
          &attributes[id],
          ProfileStore::StatsFingerprint(report->candidates.stats[id])});
    }
    sides = profile->InternSides(keys);
    std::vector<std::pair<ProfileStore::SideId, ProfileStore::SideId>> pairs;
    pairs.reserve(candidates.size());
    for (const AttributePair& candidate : candidates) {
      pairs.emplace_back(sides[candidate.dependent],
                         sides[candidate.referenced]);
    }
    const std::vector<std::optional<bool>> verdicts =
        profile->FindVerdicts(pairs);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!verdicts[i].has_value()) continue;
      ++report->verdicts_reused;
      if (*verdicts[i]) satisfied.push_back(candidates[i]);
    }
    if (report->verdicts_reused > 0) {
      unanswered.reserve(candidates.size() -
                         static_cast<size_t>(report->verdicts_reused));
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (!verdicts[i].has_value()) unanswered.push_back(candidates[i]);
      }
      to_verify = &unanswered;
    }
  }
  report->candidates_revalidated = static_cast<int64_t>(to_verify->size());

  // One dispatch. A serial run is the one-partition batch over the list
  // itself. A parallel run verifies the connected components of the
  // attribute graph, split until they fill the pool, each on its own
  // algorithm instance; all share the run's context.
  const bool parallel = pool != nullptr && to_verify->size() >= 2;
  std::vector<std::vector<AttributePair>> partitions;
  if (parallel) {
    partitions = PartitionCandidatesByComponent(attributes.size(), *to_verify);
    // A collapsed candidate graph (few components) would idle most
    // workers; oversubscribing the pool slightly lets it balance uneven
    // partitions.
    const size_t threads = static_cast<size_t>(pool->size());
    if (partitions.size() < threads) {
      partitions =
          SplitPartitionsForParallelism(std::move(partitions), threads);
    }
    report->threads_used = pool->size();
    report->partitions = static_cast<int>(partitions.size());
  }
  auto verify = [&]() -> Result<RunResult<AttributePair>> {
    RunResult<AttributePair> result;
    if (parallel && config.extractor != nullptr) {
      SPIDER_ASSIGN_OR_RETURN(result,
                              PrimeSets(*catalog_, *config.extractor,
                                        attributes, *to_verify, pool, context));
    }
    // A partition the budget or a cancel stops before it starts is skipped
    // and counts as unfinished; peak_open_files folds to the concurrent
    // high-water bound (ApplyConcurrentPeakBound).
    SPIDER_ASSIGN_OR_RETURN(
        RunResult<AttributePair> partitioned,
        RunBatch<AttributePair>(
            parallel ? pool : nullptr, parallel ? partitions.size() : 1,
            context, [&](size_t i) -> Result<RunResult<AttributePair>> {
              SPIDER_ASSIGN_OR_RETURN(
                  std::unique_ptr<IndAlgorithm> algorithm,
                  AlgorithmRegistry::Global().Create(verifier.name, config));
              return algorithm->Run(*catalog_, attributes,
                                    parallel ? partitions[i] : *to_verify,
                                    context);
            }));
    result.Append(std::move(partitioned));
    return result;
  };
  // Everything answered from the profile (or no candidates) leaves the run
  // at its finished, zero-work default.
  RunResult<AttributePair> verified;
  if (!to_verify->empty()) {
    SPIDER_RETURN_NOT_OK(RunPhase(context, config.extractor,
                                  static_cast<int64_t>(to_verify->size()),
                                  &verified, verify));
  }

  if (delta_eligible && verified.finished && !to_verify->empty()) {
    // Only finished runs decide every submitted candidate; a budget- or
    // cancellation-truncated satisfied set must not be remembered as
    // "unsatisfied". Both lists sorted by id pair: one merge decides each.
    std::sort(verified.satisfied.begin(), verified.satisfied.end());
    std::vector<ProfileStore::SideVerdict> verdicts;
    verdicts.reserve(to_verify->size());
    auto held = verified.satisfied.begin();
    for (const AttributePair& candidate : *to_verify) {
      while (held != verified.satisfied.end() && *held < candidate) ++held;
      verdicts.push_back(ProfileStore::SideVerdict{
          sides[candidate.dependent], sides[candidate.referenced],
          held != verified.satisfied.end() && *held == candidate});
    }
    profile->PutVerdicts(verdicts);
    if (!verdicts.empty()) *verdicts_recorded = true;
  }

  // One canonical order regardless of approach, partitioning, thread count
  // or verdict reuse: every configuration returns byte-identical reports.
  // Attribute names are unique, so ranking the table once orders the pairs
  // exactly as their names would sort.
  satisfied.insert(satisfied.end(), verified.satisfied.begin(),
                   verified.satisfied.end());
  std::vector<AttributeId> by_name(attributes.size());
  std::iota(by_name.begin(), by_name.end(), AttributeId{0});
  std::sort(by_name.begin(), by_name.end(), [&](AttributeId a, AttributeId b) {
    return attributes[a] < attributes[b];
  });
  std::vector<AttributeId> rank(attributes.size());
  for (size_t i = 0; i < by_name.size(); ++i) {
    rank[by_name[i]] = static_cast<AttributeId>(i);
  }
  std::sort(satisfied.begin(), satisfied.end(),
            [&rank](const AttributePair& a, const AttributePair& b) {
              return AttributePair{rank[a.dependent], rank[a.referenced]} <
                     AttributePair{rank[b.dependent], rank[b.referenced]};
            });
  report->run = IndRunResult{verified, NamePairs<Ind>(attributes, satisfied)};
  return Status::OK();
}

Result<SessionReport> SpiderSession::Run(const RunOptions& options) {
  Result<SessionReport> report = DoRun(options);
  if (!report.ok()) {
    MutexLock lock(&mutex_);
    if (extractor_ != nullptr) extractor_->ForgetCachedSets();
  }
  return report;
}

Result<SessionReport> SpiderSession::DoRun(const RunOptions& options) {
  // The run's one context, handed to every phase and partition: its clock
  // starts here, times the report and bounds the budget.
  RunContext context;
  context.time_budget_seconds = options.time_budget_seconds;
  context.cancel = options.cancel;
  context.progress = options.progress;
  // Validate before any work: a rejected option set creates no workspace
  // and loads no profile. IND runs verify unary candidates with
  // `verifier`; the other kinds enumerate their own lattices.
  SPIDER_ASSIGN_OR_RETURN(ResolvedRun resolved, ResolveRun(options));
  const AlgorithmRegistry::Entry& approach = *resolved.approach;
  const AlgorithmRegistry::Entry* const verifier = resolved.verifier;
  const AlgorithmCapabilities& capabilities = approach.capabilities;
  AlgorithmConfig& config = resolved.config;

  // The extractor is materialized for approaches that read sets (the
  // unary phase's own approach included) and, because it holds the
  // persisted profile, whose verdicts hold for any exact verifier, for
  // every IND run of a session that persists one.
  const bool verifier_reads_sets =
      verifier != nullptr && verifier->capabilities.needs_extractor;
  if (capabilities.needs_extractor || verifier_reads_sets) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  if (verifier_reads_sets) resolved.verify_config.extractor = config.extractor;
  ValueSetExtractor* profiled = config.extractor;
  if (verifier != nullptr && options_.persist_profile) {
    SPIDER_ASSIGN_OR_RETURN(profiled, extractor());
  }
  ProfileStore* const profile =
      profiled != nullptr ? profiled->profile() : nullptr;

  const int threads = ThreadPool::ResolveThreadCount(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    config.pool = pool.get();
  }

  ValueSetExtractor* const sets = config.extractor;
  SessionReport report;
  report.approach = options.approach;
  report.kind = capabilities.kind;
  bool verdicts_recorded = false;
  if (verifier != nullptr) {
    SPIDER_RETURN_NOT_OK(VerifyUnary(options, *verifier,
                                     resolved.verify_config, profile,
                                     pool.get(), context, &report,
                                     &verdicts_recorded));
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
      // Tests are not known up front: the phase counts out of 0.
      SPIDER_RETURN_NOT_OK(RunPhase(context, sets, 0, &report.nary_run, [&] {
        return algorithm->Run(*catalog_, report.run.satisfied, context);
      }));
    }
  } else if (verifier == nullptr) {
    // UCC/FD/AFD: no candidate generation — the discoverer enumerates its
    // own lattice per table, on the pool.
    report.threads_used = threads;
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<DependencyAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create<DependencyAlgorithm>(approach.name,
                                                                config));
    SPIDER_RETURN_NOT_OK(RunPhase(context, sets, 0, &report.dependency, [&] {
      return algorithm->Run(*catalog_, context);
    }));
  }
  report.profile_reused = report.verdicts_reused > 0 ||
                          report.run.counters.sets_reused > 0 ||
                          report.nary_run.counters.sets_reused > 0 ||
                          report.dependency.counters.sets_reused > 0;

  // Seal: commit fresh verdicts and the set files this run sorted. The
  // profile is a cache, so a failed save (read-only workspace, disk full)
  // is reported, not fatal — the next session recomputes instead.
  const bool sets_sorted = report.run.counters.sets_extracted > 0 ||
                           report.nary_run.counters.sets_extracted > 0 ||
                           report.dependency.counters.sets_extracted > 0;
  if (profile != nullptr && (verdicts_recorded || sets_sorted)) {
    const Status saved = profiled->SaveProfile();
    if (!saved.ok()) report.profile_save_error = saved.ToString();
  }
  report.total_seconds = context.elapsed_seconds();
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
