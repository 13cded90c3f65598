#include "src/ind/composite_verify.h"

#include "src/extsort/sorted_set_file.h"

namespace spider {

namespace {

Status ValidateCandidate(const NaryInd& candidate) {
  const int arity = candidate.arity();
  if (arity == 0 || candidate.referenced.size() != candidate.dependent.size()) {
    return Status::InvalidArgument("malformed n-ary candidate");
  }
  for (int i = 0; i < arity; ++i) {
    if (candidate.dependent[static_cast<size_t>(i)].table !=
            candidate.dependent[0].table ||
        candidate.referenced[static_cast<size_t>(i)].table !=
            candidate.referenced[0].table) {
      return Status::InvalidArgument(
          "n-ary IND sides must each come from one table: " +
          candidate.ToString());
    }
  }
  return Status::OK();
}

}  // namespace

Result<ValueSetExtractor*> CompositeSetVerifier::ExtractorOrCreate() {
  if (extractor_ != nullptr) return extractor_;
  MutexLock lock(&init_mutex_);
  if (owned_extractor_ == nullptr) {
    SPIDER_ASSIGN_OR_RETURN(owned_dir_, TempDir::Make("spider-composite"));
    owned_extractor_ = std::make_unique<ValueSetExtractor>(owned_dir_->path());
  }
  return owned_extractor_.get();
}

Result<CompositeSetVerifier::MergeOutcome> CompositeSetVerifier::Merge(
    const Catalog& catalog, const NaryInd& candidate, RunCounters* counters,
    bool early_stop) {
  SPIDER_RETURN_NOT_OK(ValidateCandidate(candidate));
  SPIDER_ASSIGN_OR_RETURN(ValueSetExtractor * extractor, ExtractorOrCreate());
  SPIDER_ASSIGN_OR_RETURN(
      SortedSetInfo dep_info,
      extractor->ExtractComposite(catalog, candidate.dependent, counters));
  MergeOutcome outcome;
  outcome.dep_distinct = dep_info.distinct_count;
  // Vacuously satisfied: don't pay for sorting the referenced side.
  if (dep_info.distinct_count == 0) return outcome;
  SPIDER_ASSIGN_OR_RETURN(
      SortedSetInfo ref_info,
      extractor->ExtractComposite(catalog, candidate.referenced, counters));

  // Open() counts files_opened; the merge holds both sets at once. Only
  // the referenced side ever fast-forwards, so only it gets the zonemap
  // knob — the dependent side is decoded value by value regardless.
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> dep,
                          SortedSetReader::Open(dep_info.path, counters));
  SortedSetReaderOptions ref_options;
  ref_options.allow_block_skip = block_skip_;
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<SortedSetReader> ref,
      SortedSetReader::Open(ref_info.path, counters, ref_options));
  if (counters != nullptr && counters->peak_open_files < 2) {
    counters->peak_open_files = 2;
  }

  // Lockstep merge over the two sorted-distinct tuple sets: both advance
  // monotonically, so each side is read at most once. The referenced
  // cursor gallops to each dependent tuple — on block-indexed files whole
  // zonemap blocks between two dependent tuples are never decoded.
  while (dep->HasNext()) {
    const std::string_view current_dep = dep->Peek();
    ref->SkipToAtLeast(current_dep);
    bool matched = false;
    if (ref->HasNext()) {
      if (counters != nullptr) ++counters->comparisons;
      matched = ref->Peek() == current_dep;
    }
    dep->Skip();
    if (!matched) {
      ++outcome.misses;
      if (early_stop) break;
    }
  }
  SPIDER_RETURN_NOT_OK(dep->status());
  SPIDER_RETURN_NOT_OK(ref->status());
  return outcome;
}

Result<bool> CompositeSetVerifier::VerifyIncluded(const Catalog& catalog,
                                                  const NaryInd& candidate,
                                                  RunCounters* counters,
                                                  bool early_stop) {
  SPIDER_ASSIGN_OR_RETURN(MergeOutcome outcome,
                          Merge(catalog, candidate, counters, early_stop));
  return outcome.misses == 0;
}

Result<double> CompositeSetVerifier::Error(const Catalog& catalog,
                                           const NaryInd& candidate,
                                           RunCounters* counters) {
  SPIDER_ASSIGN_OR_RETURN(
      MergeOutcome outcome,
      Merge(catalog, candidate, counters, /*early_stop=*/false));
  if (outcome.dep_distinct == 0) return 0.0;
  return static_cast<double>(outcome.misses) /
         static_cast<double>(outcome.dep_distinct);
}

}  // namespace spider
