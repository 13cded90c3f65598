#include "src/ind/single_pass.h"

#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

class DependentObject;
class ReferencedObject;

// FIFO activation queue (the paper's "monitor"): collects referenced
// objects whose delivery preconditions hold and activates them in order.
class Monitor {
 public:
  void EnqueueIfReady(ReferencedObject* ref);
  // Runs deliveries until no referenced object is ready. Returns false
  // when the run context stopped the drain early (budget / cancellation);
  // undecided candidates then stay undecided.
  Result<bool> Drain(RunContext& context);

 private:
  std::deque<ReferencedObject*> queue_;
};

// A referenced attribute: owns the cursor over its sorted value set and the
// list of dependent objects whose IND candidate is still undecided.
class ReferencedObject {
 public:
  ReferencedObject(AttributeId attr, std::unique_ptr<SortedSetReader> reader,
                   Monitor* monitor)
      : attr_(attr), reader_(std::move(reader)), monitor_(monitor) {}

  AttributeId attr() const { return attr_; }

  void Attach(DependentObject* dep) { attached_.insert(dep); }

  // The dependent object requests our next value. Returns false when the
  // value set is exhausted (the caller then refutes / decides the
  // candidate and detaches).
  bool WantNextValue(DependentObject* dep) {
    SPIDER_DCHECK(attached_.contains(dep));
    if (!reader_->HasNext()) return false;
    requests_.insert(dep);
    monitor_->EnqueueIfReady(this);
    return true;
  }

  // The candidate (dep ⊆ this) has been decided; stop considering dep.
  void Detach(DependentObject* dep) {
    attached_.erase(dep);
    requests_.erase(dep);
    monitor_->EnqueueIfReady(this);
  }

  // Delivery precondition: some candidate is live and every attached
  // dependent object has issued a request for a move.
  bool ReadyToDeliver() const {
    return !attached_.empty() && requests_.size() == attached_.size();
  }

  // Reads the next value and hands it to every attached dependent object.
  void Deliver();

  bool in_queue = false;

  const Status& reader_status() const { return reader_->status(); }

 private:
  AttributeId attr_;
  std::unique_ptr<SortedSetReader> reader_;
  Monitor* monitor_;
  std::set<DependentObject*> attached_;
  std::set<DependentObject*> requests_;
};

// A dependent attribute: drives the comparison of its current value against
// delivered referenced values (paper Algorithms 2 and 3).
class DependentObject {
 public:
  DependentObject(AttributeId attr, std::unique_ptr<SortedSetReader> reader,
                  std::vector<AttributePair>* satisfied, int64_t* refuted,
                  RunCounters* counters)
      : attr_(attr),
        reader_(std::move(reader)),
        satisfied_(satisfied),
        refuted_(refuted),
        counters_(counters) {}

  // Reads the first dependent value. Returns false when the set is empty
  // (the caller then decides all its candidates as vacuously satisfied).
  bool Init() {
    if (!reader_->HasNext()) return false;
    current_ = reader_->Next();
    return true;
  }

  // Initial registration: request the first value of `ref`. Mirrors the
  // steady-state request path of Algorithm 2.
  void Register(ReferencedObject* ref) {
    ref->Attach(this);
    if (ref->WantNextValue(this)) {
      current_waiting_.insert(ref);
    } else {
      // Referenced set is empty while this dependent set is not: refuted.
      ref->Detach(this);
      ++*refuted_;
    }
  }

  // Paper Algorithm 3: called by a referenced object delivering its next
  // value.
  void OnDelivery(ReferencedObject* ref, const std::string& value) {
    // Value to be compared with the NEXT dependent value: stash it.
    if (next_waiting_.erase(ref) > 0) {
      next_.emplace_back(ref, value);
      return;
    }
    // Value to be compared with the CURRENT dependent value.
    current_waiting_.erase(ref);
    ProcessComparison(ref, value);
    AdvanceIfPossible();
  }

 private:
  // Paper Algorithm 2: compare the current dependent value with a received
  // referenced value and decide how to proceed for this candidate.
  void ProcessComparison(ReferencedObject* ref, const std::string& value) {
    if (counters_ != nullptr) ++counters_->comparisons;
    if (current_ == value) {
      if (reader_->HasNext()) {
        if (ref->WantNextValue(this)) {
          next_waiting_.insert(ref);
        } else {
          // Dependent values remain but the referenced set is exhausted.
          ref->Detach(this);
          ++*refuted_;
        }
      } else {
        // Last dependent value matched: IND candidate satisfied.
        ref->Detach(this);
        satisfied_->push_back(AttributePair{attr_, ref->attr()});
      }
      return;
    }
    if (current_ > value) {
      if (ref->WantNextValue(this)) {
        current_waiting_.insert(ref);
      } else {
        // current_ cannot appear in the exhausted referenced set.
        ref->Detach(this);
        ++*refuted_;
      }
      return;
    }
    // current_ < value: the referenced stream has moved past current_, so
    // current_ is not contained in the referenced set.
    ref->Detach(this);
    ++*refuted_;
  }

  // Paper Algorithm 3, second half: once every comparison with the current
  // dependent value is done, fetch the next dependent value and replay the
  // stashed referenced values against it.
  void AdvanceIfPossible() {
    if (!current_waiting_.empty() || (next_.empty() && next_waiting_.empty())) {
      return;
    }
    // A next dependent value exists by construction: next/nextWaiting are
    // only filled after a successful reader_->HasNext() check.
    current_ = reader_->Next();
    current_waiting_ = std::move(next_waiting_);
    next_waiting_.clear();
    auto pending = std::move(next_);
    next_.clear();
    for (auto& [ref, value] : pending) {
      ProcessComparison(ref, value);
    }
    // Do we need the (new) current value any longer?
    if (current_waiting_.empty() && !next_waiting_.empty()) {
      current_ = reader_->Next();
      current_waiting_ = std::move(next_waiting_);
      next_waiting_.clear();
    }
  }

  AttributeId attr_;
  std::unique_ptr<SortedSetReader> reader_;
  std::vector<AttributePair>* satisfied_;
  int64_t* refuted_;
  RunCounters* counters_;

  std::string current_;
  // Referenced objects whose next value must be compared with current_.
  std::set<ReferencedObject*> current_waiting_;
  // Referenced objects whose next value must be compared with the next
  // dependent value and has not yet been delivered.
  std::set<ReferencedObject*> next_waiting_;
  // Referenced objects that already delivered the value to compare with the
  // next dependent value.
  std::vector<std::pair<ReferencedObject*, std::string>> next_;
};

void ReferencedObject::Deliver() {
  SPIDER_DCHECK(ReadyToDeliver());
  requests_.clear();
  // Every granted request verified HasNext(); only Deliver consumes values,
  // so a next value exists.
  const std::string value = reader_->Next();
  // Dependent objects may detach during the loop; iterate a snapshot and
  // skip the ones that left.
  std::vector<DependentObject*> snapshot(attached_.begin(), attached_.end());
  for (DependentObject* dep : snapshot) {
    if (attached_.contains(dep)) dep->OnDelivery(this, value);
  }
}

void Monitor::EnqueueIfReady(ReferencedObject* ref) {
  if (!ref->in_queue && ref->ReadyToDeliver()) {
    ref->in_queue = true;
    queue_.push_back(ref);
  }
}

Result<bool> Monitor::Drain(RunContext& context) {
  // Budget/cancellation polls are throttled: one clock read per
  // kStopPollInterval deliveries keeps the hot loop cheap.
  constexpr int64_t kStopPollInterval = 64;
  int64_t deliveries = 0;
  while (!queue_.empty()) {
    if (deliveries++ % kStopPollInterval == 0 && context.ShouldStop()) {
      return false;
    }
    ReferencedObject* ref = queue_.front();
    queue_.pop_front();
    ref->in_queue = false;
    // State may have changed since enqueue (detaches); re-verify. Any
    // change that restores readiness re-enqueues.
    if (!ref->ReadyToDeliver()) continue;
    ref->Deliver();
    SPIDER_RETURN_NOT_OK(ref->reader_status());
  }
  return true;
}

// Runs one single-pass engine instance over one candidate block. Returns
// false when the run context stopped the block early.
Result<bool> RunBlock(const Catalog& catalog,
                      const std::vector<AttributeRef>& attributes,
                      ValueSetExtractor* extractor,
                      const std::vector<AttributePair>& candidates,
                      RunContext& context, IdRunResult* result) {
  Monitor monitor;
  int64_t refuted = 0;
  const int64_t satisfied_at_entry =
      static_cast<int64_t>(result->satisfied.size());

  // Instantiate one object per distinct attribute in each role, by id.
  std::vector<std::unique_ptr<DependentObject>> deps(attributes.size());
  std::vector<std::unique_ptr<ReferencedObject>> refs(attributes.size());
  int64_t open_files = 0;
  auto open =
      [&](AttributeId attr) -> Result<std::unique_ptr<SortedSetReader>> {
    SPIDER_ASSIGN_OR_RETURN(SortedSetInfo info,
                            extractor->Extract(catalog, attributes[attr]));
    ++open_files;
    return SortedSetReader::Open(info.path, &result->counters);
  };
  for (const AttributePair& candidate : candidates) {
    if (deps[candidate.dependent] == nullptr) {
      SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> reader,
                              open(candidate.dependent));
      deps[candidate.dependent] = std::make_unique<DependentObject>(
          candidate.dependent, std::move(reader), &result->satisfied, &refuted,
          &result->counters);
    }
    if (refs[candidate.referenced] == nullptr) {
      SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> reader,
                              open(candidate.referenced));
      refs[candidate.referenced] = std::make_unique<ReferencedObject>(
          candidate.referenced, std::move(reader), &monitor);
    }
  }
  if (open_files > result->counters.peak_open_files) {
    result->counters.peak_open_files = open_files;
  }

  // Read first dependent values; an empty dependent set satisfies all its
  // candidates vacuously (cannot occur for candidates from the generator,
  // which requires non-empty dependents, but callers may hand-craft sets).
  std::vector<bool> empty_dep(attributes.size(), false);
  for (size_t id = 0; id < deps.size(); ++id) {
    if (deps[id] != nullptr && !deps[id]->Init()) empty_dep[id] = true;
  }

  for (const AttributePair& candidate : candidates) {
    ++result->counters.candidates_tested;
    if (empty_dep[candidate.dependent]) {
      result->satisfied.push_back(candidate);
      continue;
    }
    deps[candidate.dependent]->Register(refs[candidate.referenced].get());
  }

  SPIDER_ASSIGN_OR_RETURN(bool drained, monitor.Drain(context));
  if (!drained) return false;

  // Theorem 3.1: when the monitor runs dry every candidate is decided —
  // satisfied INDs recorded plus refutations must add up to the block size.
  const int64_t satisfied_total = static_cast<int64_t>(result->satisfied.size());
  const int64_t satisfied_this_block = satisfied_total - satisfied_at_entry;
  SPIDER_CHECK_EQ(satisfied_this_block + refuted,
                  static_cast<int64_t>(candidates.size()))
      << "single-pass left undecided candidates (deadlock?)";
  return true;
}

}  // namespace

std::vector<std::vector<AttributePair>> PartitionCandidatesByFileBudget(
    size_t attribute_count, const std::vector<AttributePair>& candidates,
    int max_open_files) {
  std::vector<std::vector<AttributePair>> blocks;
  if (candidates.empty()) return blocks;
  if (max_open_files <= 0) {
    blocks.push_back(candidates);
    return blocks;
  }
  SPIDER_CHECK_GE(max_open_files, 2)
      << "single-pass needs at least one dependent and one referenced file";

  // The block each attribute's file was last counted in, per role: a
  // candidate adds at most its two files to the open block.
  constexpr size_t kNever = std::numeric_limits<size_t>::max();
  std::vector<size_t> dep_block(attribute_count, kNever);
  std::vector<size_t> ref_block(attribute_count, kNever);
  std::vector<AttributePair> current;
  int64_t files = 0;
  for (const AttributePair& candidate : candidates) {
    size_t block = blocks.size();
    int64_t added = (dep_block[candidate.dependent] != block ? 1 : 0) +
                    (ref_block[candidate.referenced] != block ? 1 : 0);
    if (!current.empty() && files + added > max_open_files) {
      blocks.push_back(std::move(current));
      current.clear();
      block = blocks.size();
      files = 0;
      added = 2;
    }
    dep_block[candidate.dependent] = block;
    ref_block[candidate.referenced] = block;
    files += added;
    current.push_back(candidate);
  }
  if (!current.empty()) blocks.push_back(std::move(current));
  return blocks;
}

std::vector<std::vector<IndCandidate>> PartitionCandidatesByFileBudget(
    const std::vector<IndCandidate>& candidates, int max_open_files) {
  const InternedCandidates interned = InternCandidates(candidates);
  std::vector<std::vector<IndCandidate>> blocks;
  for (const std::vector<AttributePair>& block :
       PartitionCandidatesByFileBudget(interned.attributes.size(),
                                       interned.pairs, max_open_files)) {
    blocks.push_back(NamePairs<IndCandidate>(interned.attributes, block));
  }
  return blocks;
}

SinglePassAlgorithm::SinglePassAlgorithm(const AlgorithmConfig& config)
    : config_(config) {
  SPIDER_CHECK(config_.extractor != nullptr)
      << "single-pass requires a value-set extractor";
}

Result<IdRunResult> SinglePassAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  IdRunResult result;
  Stopwatch watch;
  watch.Start();

  // Duplicate candidates would register the same observer pair twice;
  // test each distinct pair once (preserving first-occurrence order).
  std::vector<AttributePair> unique_candidates;
  unique_candidates.reserve(candidates.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(candidates.size());
  for (const AttributePair& candidate : candidates) {
    if (seen.insert(uint64_t{candidate.dependent} << 32 | candidate.referenced)
            .second) {
      unique_candidates.push_back(candidate);
    }
  }

  std::vector<std::vector<AttributePair>> blocks =
      PartitionCandidatesByFileBudget(attributes.size(), unique_candidates,
                                      config_.max_open_files);
  context.Begin(static_cast<int64_t>(blocks.size()));
  for (const auto& block : blocks) {
    if (context.ShouldStop()) {
      result.finished = false;
      break;
    }
    SPIDER_ASSIGN_OR_RETURN(bool block_finished,
                            RunBlock(catalog, attributes, config_.extractor,
                                     block, context, &result));
    if (!block_finished) {
      result.finished = false;
      break;
    }
    context.Step();
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterSinglePassAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.summary =
      "all candidates in one pass, every value read once (Sec. 3.2); "
      "max_open_files enables the blockwise extension";
  Status status = registry.Register(
      "single-pass", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<SinglePassAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
