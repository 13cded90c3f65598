// Extracts sorted-distinct value sets from a catalog, one file per
// attribute.
//
// This is the "let the database engine perform sorting" step of the paper's
// database-external approaches (Sec. 3): each attribute's distinct non-NULL
// values are materialized once, in canonical lexicographic order, and then
// shared by every IND test.

#pragma once

#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/counters.h"
#include "src/common/file_io.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/temp_dir.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/extsort/external_sorter.h"
#include "src/extsort/profile_store.h"
#include "src/extsort/sorted_set_file.h"
#include "src/storage/catalog.h"

namespace spider {

/// Options for value-set extraction.
struct ValueSetExtractorOptions {
  /// Memory budget handed to each external sort: a memory-backed column's
  /// or a composite tuple's. A column whose store keeps its distinct
  /// values sorted (the disk backend) is merged from them, not sorted.
  int64_t sort_memory_budget_bytes = 64LL << 20;
  /// Persist the profile: load spider_profile.manifest from the output dir
  /// at construction, reuse recorded set files whose source and content
  /// fingerprints still verify instead of re-extracting, and record fresh
  /// extractions for the next session (committed by SaveProfile()). Only
  /// columns with cached statistics (the disk backend) participate —
  /// without sealed stats there is no source fingerprint to validate
  /// against.
  bool persist_profile = false;
};

/// \brief Materializes sorted-distinct value sets for catalog attributes.
///
/// A disk column's set is the k-way merge of its block dictionaries, which
/// the store keeps sorted (ColumnStore::VisitDistinctSorted); a memory
/// column's set and every composite set go through an ExternalSorter.
///
/// Thread-safe: any number of threads may Extract() concurrently. The cache
/// deduplicates in-flight work — the first caller for an attribute extracts
/// it, later callers (concurrent or not) block on that extraction and share
/// its file. Set-file names are deterministic functions of the attribute
/// (not of arrival order), so a given work_dir layout is reproducible
/// regardless of thread interleaving.
///
/// The work is counted where it happens, as SortedSetReader::Open counts
/// files_opened: the one call that extracted a set, or reused it from the
/// persisted profile, adds it to the counters it was handed
/// (sets_extracted or sets_reused). Callers served from the cache add
/// nothing, so runs sharing an extractor never count each other's work.
class ValueSetExtractor {
 public:
  /// `output_dir` must exist; one ".set" file per attribute is published
  /// inside it. Spill runs live in this extractor's own `.extract.tmp-*`
  /// scratch directory under it (TempDir::MakeShared, created at the first
  /// extraction), unpublished sets beside it under names that start with
  /// the scratch directory's, so other processes may share `output_dir`.
  ValueSetExtractor(std::filesystem::path output_dir,
                    ValueSetExtractorOptions options = {});

  /// Extracts the given attribute from the catalog. NULLs are dropped
  /// (inclusion dependencies are defined over non-NULL values). Re-runs for
  /// the same attribute return the cached file. A non-null `counters`
  /// counts the set if this call extracted or reused it.
  [[nodiscard]]
  Result<SortedSetInfo> Extract(const Catalog& catalog,
                                const AttributeRef& attribute,
                                RunCounters* counters = nullptr);

  /// Extracts all listed attributes; returns infos in the same order. When
  /// `pool` is non-null the per-attribute extractions run concurrently on it
  /// (duplicates in `attributes` are coalesced by the cache).
  [[nodiscard]]
  Result<std::vector<SortedSetInfo>> ExtractAll(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      ThreadPool* pool = nullptr);

  /// Info for an already extracted attribute, or NotFound. Blocks if the
  /// extraction is still in flight on another thread.
  [[nodiscard]]
  Result<SortedSetInfo> Lookup(const AttributeRef& attribute) const;

  /// Extracts the sorted-distinct COMPOSITE value set of an attribute
  /// tuple (all from one table, order significant): each row's non-NULL
  /// components are encoded with EncodeCompositeKey, rows with any NULL
  /// component are dropped (SQL MATCH SIMPLE). Streams through a
  /// CompositeValueCursor, so peak memory is one storage block per
  /// component plus the sort budget — the n-ary algorithms' out-of-core
  /// path. Cached, thread-safe and counted exactly like Extract().
  [[nodiscard]]
  Result<SortedSetInfo> ExtractComposite(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      RunCounters* counters = nullptr);

  /// Deterministic file-system-safe set-file name for an attribute.
  /// Exposed for tests and tools that want to predict the workspace layout.
  static std::string SetFileName(const AttributeRef& attribute);

  /// Deterministic set-file name for a composite attribute tuple; distinct
  /// from every unary SetFileName and order-sensitive ((a,b) != (b,a)).
  static std::string CompositeSetFileName(
      const std::vector<AttributeRef>& attributes);

  /// The persistent profile, or null unless options.persist_profile.
  ProfileStore* profile() const { return profile_.get(); }

  /// Persists the profile (no-op without one). Callers decide the commit
  /// points — typically once per finished session run.
  [[nodiscard]]
  Status SaveProfile() const {
    return profile_ == nullptr ? Status::OK() : profile_->Save();
  }

  /// Confirms that every set file this extractor recorded in or reused
  /// from the profile still holds the bytes it recorded. Another run over
  /// the same directory — at another commit of the workspace — may have
  /// published its own bytes under the same name since; a run that read
  /// the file may then have read data that is not its own. IOError then,
  /// naming the file. One stat per set; a set whose identity changed is
  /// fingerprinted again, so a replacement with equal bytes (a concurrent
  /// run at the same commit) passes. OK without a profile.
  [[nodiscard]]
  Status CheckSetsUnchanged() const SPIDER_EXCLUDES(mutex_);

  /// Drops every cached set, for after a failed run: the set that failed
  /// it may be damaged on disk. Each set's next request checks its bytes
  /// against the profile again (or extracts it again) instead of being served
  /// from the cache. Extractions in flight still reach their waiters, and
  /// the sets served so far stay known to CheckSetsUnchanged().
  void ForgetCachedSets() SPIDER_EXCLUDES(mutex_);

 private:
  /// The uncached reuse-or-extract step for the set published as
  /// `file_name`; counts what it did into `counters` when non-null.
  [[nodiscard]]
  Result<SortedSetInfo> DoExtract(const Catalog& catalog,
                                  const AttributeRef& attribute,
                                  const std::string& file_name,
                                  RunCounters* counters);
  [[nodiscard]]
  Result<SortedSetInfo> DoExtractComposite(
      const Catalog& catalog, const std::vector<AttributeRef>& attributes,
      const std::string& file_name, RunCounters* counters);

  /// Claim-or-wait on the cache entry for `file_name`: the first caller
  /// runs `do_extract`, concurrent callers block on its shared future;
  /// failures are evicted so later calls may retry.
  template <typename ExtractFn>
  [[nodiscard]]
  Result<SortedSetInfo> ExtractCached(const std::string& file_name,
                                      ExtractFn&& do_extract)
      SPIDER_EXCLUDES(mutex_);

  /// The bytes a set file held when this extractor recorded or reused it.
  struct ServedSet {
    FileIdentity identity;
    uint64_t content_fingerprint = 0;
  };

  /// This extractor's scratch directory, created (and stale ones swept) on
  /// first use.
  [[nodiscard]]
  Result<std::filesystem::path> ScratchDir() SPIDER_EXCLUDES(scratch_mutex_);

  /// Has `write(scratch_dir, staged)` write a set file at `staged`, a name
  /// of this extractor's own, and publishes it as `file_name` under the
  /// output dir. With a `source_fingerprint` the set is recorded in the
  /// profile, fingerprinted before it is published: what is recorded is
  /// always this extractor's own bytes.
  template <typename WriteFn>
  [[nodiscard]]
  Result<SortedSetInfo> PublishSet(const std::string& file_name,
                                   std::optional<uint64_t> source_fingerprint,
                                   WriteFn&& write);

  /// Publishes one cursor's non-NULL values, sorted through an
  /// ExternalSorter that spills into the scratch directory (PublishSet).
  [[nodiscard]]
  Result<SortedSetInfo> SortCursorToSet(
      ValueCursor& cursor, const std::string& file_name,
      std::optional<uint64_t> source_fingerprint);

  /// Returns the recorded set for `file_name` when its profile entry's
  /// source fingerprint matches and the on-disk bytes still verify;
  /// nullopt (never an error) otherwise.
  std::optional<SortedSetInfo> TryReuse(const std::string& file_name,
                                        uint64_t source_fingerprint);

  /// Records a fresh extraction in the profile and in served_.
  void RecordSet(const SortedSetInfo& info, const std::string& file_name,
                 uint64_t source_fingerprint, const ServedSet& served);

  std::filesystem::path output_dir_;
  ValueSetExtractorOptions options_;
  /// Non-null iff options_.persist_profile; ProfileStore is internally
  /// thread-safe.
  std::unique_ptr<ProfileStore> profile_;
  Mutex scratch_mutex_;
  std::unique_ptr<TempDir> scratch_ SPIDER_GUARDED_BY(scratch_mutex_);
  mutable Mutex mutex_;
  /// Recorded or reused sets by file name, for CheckSetsUnchanged().
  std::map<std::string, ServedSet> served_ SPIDER_GUARDED_BY(mutex_);
  /// Completed or in-flight extractions, unary and composite, by the
  /// set-file name each is published under (SetFileName and
  /// CompositeSetFileName never collide). shared_future so that concurrent
  /// requesters of the same set all wait on one extraction. Only the map
  /// is guarded — waiting on a future happens outside the lock.
  std::map<std::string, std::shared_future<Result<SortedSetInfo>>> cache_
      SPIDER_GUARDED_BY(mutex_);
};

}  // namespace spider
