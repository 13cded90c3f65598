#include "src/extsort/value_set_extractor.h"

#include <cctype>
#include <cstdint>
#include <cstdio>

#include "src/common/hash.h"
#include "src/storage/composite_cursor.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

// Writes the distinct values `store` keeps sorted as the set file `path`,
// in the format an ExternalSorter writes: no sort, so no sort budget and no
// spill run.
Result<SortedSetInfo> WriteDistinctSet(const ColumnStore& store,
                                       const fs::path& path) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetWriter> writer,
                          SortedSetWriter::Create(path));
  SPIDER_RETURN_NOT_OK(store.VisitDistinctSorted(
      [&writer](std::string_view value) { return writer->Append(value); }));
  return writer->Finish();
}

}  // namespace

std::string ValueSetExtractor::SetFileName(const AttributeRef& attr) {
  // AttributeFileStem is shared with the disk column store, so one
  // attribute maps to the same "<sanitized>-<hash>" family everywhere.
  return AttributeFileStem(attr) + ".set";
}

std::string ValueSetExtractor::CompositeSetFileName(
    const std::vector<AttributeRef>& attrs) {
  SPIDER_CHECK(!attrs.empty());
  // Readable part: "table.col1+col2+..." sanitized and bounded; identity
  // part: a hash chained over every component so distinct tuples (and
  // distinct orders) land in distinct files regardless of sanitization
  // collisions. The "tuple-" prefix keeps the namespace disjoint from the
  // unary ".set" files.
  std::string name = attrs[0].table;
  uint64_t hash = HashString(attrs[0].table);
  for (size_t i = 0; i < attrs.size(); ++i) {
    name += (i == 0 ? "." : "+");
    name += attrs[i].column;
    hash = HashString(attrs[i].column, HashString(attrs[i].table, hash));
  }
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_' &&
        c != '+') {
      c = '_';
    }
  }
  constexpr size_t kMaxReadable = 96;
  if (name.size() > kMaxReadable) name.resize(kMaxReadable);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return "tuple-" + name + "-" + hex + ".set";
}

ValueSetExtractor::ValueSetExtractor(fs::path output_dir,
                                     ValueSetExtractorOptions options)
    : output_dir_(std::move(output_dir)), options_(options) {
  if (options_.persist_profile) {
    profile_ = std::make_unique<ProfileStore>(output_dir_);
    profile_->Load();
  }
}

Result<fs::path> ValueSetExtractor::ScratchDir() {
  MutexLock lock(&scratch_mutex_);
  if (scratch_ == nullptr) {
    SPIDER_ASSIGN_OR_RETURN(scratch_,
                            TempDir::MakeShared(output_dir_, ".extract"));
  }
  return scratch_->path();
}

std::optional<SortedSetInfo> ValueSetExtractor::TryReuse(
    const std::string& file_name, uint64_t source_fingerprint) {
  std::optional<ProfileSetEntry> entry = profile_->FindSet(file_name);
  if (!entry || entry->source_fingerprint != source_fingerprint) {
    return std::nullopt;  // never extracted, or the source data changed
  }
  const fs::path path = output_dir_ / file_name;
  const std::optional<FileIdentity> identity = StatFileIdentity(path);
  if (!identity || identity->size != entry->file_bytes) {
    return std::nullopt;  // deleted or truncated — recompute
  }
  Result<uint64_t> content = ProfileStore::FileFingerprint(path);
  if (!content.ok() || *content != entry->content_fingerprint) {
    return std::nullopt;  // bit rot, or another commit's bytes — recompute
  }
  {
    MutexLock lock(&mutex_);
    served_[file_name] = ServedSet{*identity, *content};
  }
  SortedSetInfo info;
  info.path = path;
  info.distinct_count = entry->distinct_count;
  return info;
}

void ValueSetExtractor::RecordSet(const SortedSetInfo& info,
                                  const std::string& file_name,
                                  uint64_t source_fingerprint,
                                  const ServedSet& served) {
  ProfileSetEntry entry;
  entry.file_name = file_name;
  entry.file_bytes = served.identity.size;
  entry.content_fingerprint = served.content_fingerprint;
  entry.source_fingerprint = source_fingerprint;
  entry.distinct_count = info.distinct_count;
  profile_->PutSet(std::move(entry));
  MutexLock lock(&mutex_);
  served_[file_name] = served;
}

Status ValueSetExtractor::CheckSetsUnchanged() const {
  std::vector<std::pair<std::string, ServedSet>> served;
  {
    MutexLock lock(&mutex_);
    served.assign(served_.begin(), served_.end());
  }
  for (const auto& [file_name, set] : served) {
    const fs::path path = output_dir_ / file_name;
    if (StatFileIdentity(path) == set.identity) continue;
    Result<uint64_t> content = ProfileStore::FileFingerprint(path);
    if (content.ok() && *content == set.content_fingerprint) continue;
    return Status::IOError(
        "set file " + path.string() +
        " changed during the run: another run over this directory, at "
        "another commit of the workspace, replaced it");
  }
  return Status::OK();
}

void ValueSetExtractor::ForgetCachedSets() {
  MutexLock lock(&mutex_);
  cache_.clear();
}

template <typename WriteFn>
Result<SortedSetInfo> ValueSetExtractor::PublishSet(
    const std::string& file_name, std::optional<uint64_t> source_fingerprint,
    WriteFn&& write) {
  SPIDER_ASSIGN_OR_RETURN(const fs::path scratch, ScratchDir());
  // Staged under a name of this extraction's own, beside the final one: a
  // rename within one directory is cheaper than one between two, and the
  // name, `<scratch dir>.<file_name>.tmp-*`, tells the sweep of a killed
  // run's scratch directory that the file is the dead run's too. The
  // writer writes it in place, so two extractions of one set (a failed
  // run drops the cache while one is in flight) must not share it.
  const fs::path staged = UniqueTempPath(
      output_dir_ / (scratch.filename().string() + "." + file_name));
  SPIDER_ASSIGN_OR_RETURN(SortedSetInfo info, write(scratch, staged));
  // Fingerprinted where no other run can reach it, so the profile records
  // these bytes even if another run publishes its own under the same name
  // right after. Best effort: an unreadable file is simply not recorded.
  std::optional<ServedSet> served;
  if (source_fingerprint) {
    const std::optional<FileIdentity> identity = StatFileIdentity(staged);
    Result<uint64_t> content = ProfileStore::FileFingerprint(staged);
    if (identity && content.ok()) served = ServedSet{*identity, *content};
  }
  info.path = output_dir_ / file_name;
  std::error_code ec;
  fs::rename(staged, info.path, ec);
  if (ec) {
    const Status failed = Status::IOError("cannot publish set file " +
                                          info.path.string() + ": " +
                                          ec.message());
    fs::remove(staged, ec);  // best effort
    return failed;
  }
  // The rename keeps the inode, size and mtime, so `served` names the
  // published file until another run replaces it.
  if (served) RecordSet(info, file_name, *source_fingerprint, *served);
  return info;
}

Result<SortedSetInfo> ValueSetExtractor::SortCursorToSet(
    ValueCursor& cursor, const std::string& file_name,
    std::optional<uint64_t> source_fingerprint) {
  return PublishSet(
      file_name, source_fingerprint,
      [&](const fs::path& scratch,
          const fs::path& staged) -> Result<SortedSetInfo> {
        ExternalSorterOptions sorter_options;
        sorter_options.memory_budget_bytes = options_.sort_memory_budget_bytes;
        sorter_options.spill_dir = scratch;
        // Spill runs carry the set file's name, which tells a listing whose
        // they are.
        sorter_options.run_prefix = file_name;
        ExternalSorter sorter(sorter_options);
        // Stream the cursor into the sorter: with the disk backend, peak
        // memory is one storage block per component plus the sorter's
        // budget — never the column.
        std::string_view value;
        for (CursorStep step = cursor.Next(&value); step != CursorStep::kEnd;
             step = cursor.Next(&value)) {
          if (step == CursorStep::kNull) continue;
          SPIDER_RETURN_NOT_OK(sorter.Add(std::string(value)));
        }
        SPIDER_RETURN_NOT_OK(cursor.status());
        return sorter.WriteSortedSet(staged);
      });
}

Result<SortedSetInfo> ValueSetExtractor::DoExtract(
    const Catalog& catalog, const AttributeRef& attribute,
    const std::string& file_name, RunCounters* counters) {
  SPIDER_ASSIGN_OR_RETURN(const Column* column,
                          catalog.ResolveAttribute(attribute));
  std::optional<uint64_t> source_fp;
  if (profile_ != nullptr && column->cached_stats() != nullptr) {
    source_fp = ProfileStore::StatsFingerprint(*column->cached_stats());
    if (std::optional<SortedSetInfo> reused = TryReuse(file_name, *source_fp)) {
      if (counters != nullptr) ++counters->sets_reused;
      return *std::move(reused);
    }
  }
  SortedSetInfo info;
  const ColumnStore& store = column->store();
  if (store.keeps_sorted_distinct()) {
    SPIDER_ASSIGN_OR_RETURN(
        info, PublishSet(file_name, source_fp,
                         [&store](const fs::path& /*scratch*/,
                                  const fs::path& staged) {
                           return WriteDistinctSet(store, staged);
                         }));
  } else {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                            column->OpenCursor());
    SPIDER_ASSIGN_OR_RETURN(info,
                            SortCursorToSet(*cursor, file_name, source_fp));
  }
  if (counters != nullptr) ++counters->sets_extracted;
  return info;
}

Result<SortedSetInfo> ValueSetExtractor::DoExtractComposite(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::string& file_name, RunCounters* counters) {
  std::optional<uint64_t> source_fp;
  if (profile_ != nullptr) {
    // The composite source fingerprint chains the component columns'
    // stats fingerprints in tuple order; any component's data change
    // invalidates the tuple set.
    uint64_t chained = kFnvOffsetBasis;
    bool all_have_stats = true;
    for (const AttributeRef& attr : attributes) {
      Result<const Column*> column = catalog.ResolveAttribute(attr);
      if (!column.ok() || (*column)->cached_stats() == nullptr) {
        all_have_stats = false;
        break;
      }
      const uint64_t component =
          ProfileStore::StatsFingerprint(*(*column)->cached_stats());
      chained = HashString(
          std::string_view(reinterpret_cast<const char*>(&component),
                           sizeof(component)),
          chained);
    }
    if (all_have_stats) {
      source_fp = chained;
      if (std::optional<SortedSetInfo> reused =
              TryReuse(file_name, *source_fp)) {
        if (counters != nullptr) ++counters->sets_reused;
        return *std::move(reused);
      }
    }
  }
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                          OpenCompositeCursor(catalog, attributes));
  SPIDER_ASSIGN_OR_RETURN(SortedSetInfo info,
                          SortCursorToSet(*cursor, file_name, source_fp));
  if (counters != nullptr) ++counters->sets_extracted;
  return info;
}

template <typename ExtractFn>
Result<SortedSetInfo> ValueSetExtractor::ExtractCached(
    const std::string& file_name, ExtractFn&& do_extract) {
  std::promise<Result<SortedSetInfo>> promise;
  std::shared_future<Result<SortedSetInfo>> future;
  bool owner = false;
  {
    MutexLock lock(&mutex_);
    auto it = cache_.find(file_name);
    if (it != cache_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      cache_.emplace(file_name, future);
      owner = true;
    }
  }
  if (!owner) return future.get();

  // This thread claimed the key: sort it outside the lock while concurrent
  // requesters wait on the shared future.
  Result<SortedSetInfo> result = do_extract();
  if (!result.ok()) {
    // Failures are not cached — a later call may retry (concurrent waiters
    // still observe this failure through the shared state).
    MutexLock lock(&mutex_);
    cache_.erase(file_name);
  }
  promise.set_value(result);
  return result;
}

Result<SortedSetInfo> ValueSetExtractor::Extract(const Catalog& catalog,
                                                 const AttributeRef& attribute,
                                                 RunCounters* counters) {
  const std::string file_name = SetFileName(attribute);
  return ExtractCached(file_name, [&] {
    return DoExtract(catalog, attribute, file_name, counters);
  });
}

Result<SortedSetInfo> ValueSetExtractor::ExtractComposite(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    RunCounters* counters) {
  if (attributes.empty()) {
    return Status::InvalidArgument("composite extraction over zero attributes");
  }
  const std::string file_name = CompositeSetFileName(attributes);
  return ExtractCached(file_name, [&] {
    return DoExtractComposite(catalog, attributes, file_name, counters);
  });
}

Result<std::vector<SortedSetInfo>> ValueSetExtractor::ExtractAll(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    ThreadPool* pool) {
  std::vector<SortedSetInfo> infos;
  infos.reserve(attributes.size());
  if (pool == nullptr) {
    for (const AttributeRef& attr : attributes) {
      SPIDER_ASSIGN_OR_RETURN(SortedSetInfo info, Extract(catalog, attr));
      infos.push_back(std::move(info));
    }
    return infos;
  }
  std::vector<std::future<Result<SortedSetInfo>>> futures;
  futures.reserve(attributes.size());
  for (const AttributeRef& attr : attributes) {
    futures.push_back(pool->Submit(
        [this, &catalog, attr]() { return Extract(catalog, attr); }));
  }
  Status first_error = Status::OK();
  for (auto& future : futures) {
    Result<SortedSetInfo> info = future.get();
    if (!info.ok()) {
      if (first_error.ok()) first_error = info.status();
      continue;
    }
    infos.push_back(std::move(info).value());
  }
  SPIDER_RETURN_NOT_OK(first_error);
  return infos;
}

Result<SortedSetInfo> ValueSetExtractor::Lookup(
    const AttributeRef& attribute) const {
  const std::string file_name = SetFileName(attribute);
  std::shared_future<Result<SortedSetInfo>> future;
  {
    MutexLock lock(&mutex_);
    auto it = cache_.find(file_name);
    if (it == cache_.end()) {
      return Status::NotFound("no extracted value set for " +
                              attribute.ToString());
    }
    future = it->second;
  }
  return future.get();
}

}  // namespace spider
