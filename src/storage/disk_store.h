// Out-of-core columnar storage: the disk backend behind Column.
//
// Each table's values live in one ".col" file of compressed blocks inside a
// workspace directory (named by TableFileStem). A block belongs to one
// column and holds a sorted, front-coded dictionary of the block's distinct
// values plus one varint dictionary code per row (code 0 is NULL) —
// dictionary-plus-prefix compression that needs no external library and
// decompresses with a single sequential read. The columns of a table flush
// their blocks into the table file as each fills, so one column's blocks
// interleave with the others'; the manifest records where each block
// starts. Access is streaming only (ValueCursor): peak memory per open
// cursor is one block, regardless of column size. A column's sorted
// distinct values stream from a merge of its block dictionaries
// (VisitDistinctSorted).
//
// A workspace is self-describing: DiskCatalogWriter persists the schema,
// row counts, per-column statistics and block offsets in
// "spider_store.manifest" (store_manifest.h: a table names its file and
// committed bytes, a column its block offsets and own block bytes), and
// OpenDiskCatalog() rebuilds the Catalog from it without touching the data
// files — so a multi-GB import is paid once and profiled many times.
// An append adds blocks past a table file's committed bytes; the manifest
// rename that commits them is the only point readers can see them.

#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/result.h"
#include "src/storage/catalog.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/column_stats.h"
#include "src/storage/column_store.h"

namespace spider {

/// Knobs for the disk backend.
struct DiskStoreOptions {
  /// Target raw bytes buffered per column before a block is flushed. The
  /// bound on import memory is block_bytes × columns of the widest table,
  /// plus the writer's batches in flight (see DiskCatalogWriter); the bound
  /// on scan memory is one block per open cursor.
  int64_t block_bytes = 256LL << 10;
  /// Workers of the writer's own pool, which encodes and seals a table's
  /// columns: 0 = hardware concurrency, 1 = everything inline on the
  /// caller's thread. The pool starts with the first table that fills a
  /// batch and never holds more workers than the hardware concurrency or
  /// the widest such table has columns. The workspace's bytes do not
  /// depend on it.
  int threads = 0;
};

/// Cells (rows × columns) of one batch a DiskCatalogWriter encodes: a
/// table of c columns submits a batch every max(1, kDiskWriterBatchCells / c)
/// rows.
inline constexpr size_t kDiskWriterBatchCells = 4096;

/// Name of the manifest file inside a disk-store workspace.
inline constexpr const char* kDiskStoreManifestName = "spider_store.manifest";

/// Name of the writer lock file inside a disk-store workspace: a
/// DiskCatalogWriter holds an exclusive flock on it (see Create()).
inline constexpr const char* kDiskStoreLockName = "spider_store.lock";

/// \brief A sealed, read-only disk-backed column: its blocks in its
/// table's ".col" file.
class DiskColumnStore final : public ColumnStore {
 public:
  /// `block_offsets` (strictly ascending) locate the column's blocks in the
  /// table file at `path`, whose committed bytes end at `table_bytes`;
  /// `bytes` is the sum of the column's own block sizes.
  DiskColumnStore(std::filesystem::path path, ColumnStats stats, int64_t bytes,
                  std::vector<uint64_t> block_offsets, int64_t table_bytes)
      : path_(std::move(path)),
        stats_(std::move(stats)),
        bytes_(bytes),
        block_offsets_(std::move(block_offsets)),
        table_bytes_(table_bytes) {}

  int64_t row_count() const override { return stats_.row_count; }
  int64_t non_null_count() const override { return stats_.non_null_count; }

  [[nodiscard]]
  Status Append(Value v) override {
    (void)v;
    return Status::InvalidArgument("disk-backed column in '" + path_.string() +
                                   "' is sealed (write through "
                                   "DiskCatalogWriter)");
  }

  [[nodiscard]]
  Result<std::unique_ptr<ValueCursor>> OpenCursor() const override;

  int64_t ApproximateByteSize() const override { return bytes_; }
  bool out_of_core() const override { return true; }
  const ColumnStats* cached_stats() const override { return &stats_; }

  /// Every block's dictionary is sorted: VisitDistinctSorted() merges them,
  /// as the seal did for the statistics, through one read window of 8 KiB
  /// per block. Damage — a block that does not decode, or values whose
  /// count, min or max differ from the statistics — fails it with an
  /// IOError naming the table file.
  bool keeps_sorted_distinct() const override { return true; }
  [[nodiscard]]
  Status VisitDistinctSorted(
      const std::function<Status(std::string_view)>& visit) const override;

  /// The table file that holds the column's blocks.
  const std::filesystem::path& path() const { return path_; }
  const std::vector<uint64_t>& block_offsets() const { return block_offsets_; }
  int64_t block_count() const {
    return static_cast<int64_t>(block_offsets_.size());
  }

 private:
  std::filesystem::path path_;
  ColumnStats stats_;
  int64_t bytes_ = 0;
  std::vector<uint64_t> block_offsets_;
  int64_t table_bytes_ = 0;
};

/// \brief Streaming writer of one disk-store workspace; the CatalogSink the
/// CSV importer and the data generators target with --backend=disk.
///
/// AppendRow checks and widens a row on the caller's thread and moves its
/// cells into a batch; each range of columns encodes its cells of a full
/// batch on the writer's pool (DiskStoreOptions::threads), one batch after
/// another, and the caller's thread writes the blocks that filled in the
/// serial order: by the row at which each filled, then by column.
/// FinishTable seals the columns on the same pool; a table that fits in
/// one batch is encoded and sealed inline. Memory stays bounded by
/// block_bytes × columns of the table being loaded, plus the batches in
/// flight (at most 16 of kDiskWriterBatchCells cells each, or of one row
/// when a row has more cells, and the blocks they filled), plus the
/// per-block merge buffers of each column being sealed, no matter how many
/// rows stream through.
///
/// A failed block write surfaces at the next AppendRow or at FinishTable.
/// A writer destroyed with batches in flight stops its workers, waits for
/// them and commits nothing.
///
/// One writer per workspace: Create() and OpenForAppend() take an
/// exclusive flock on kDiskStoreLockName and hold it until Finish()
/// commits or the writer is destroyed. flock locks belong to the open file
/// description, so a second writer, in this process or another, fails with
/// a ResourceExhausted "workspace busy" Status instead of interleaving its
/// blocks with the first.
class DiskCatalogWriter final : public CatalogSink {
 public:
  /// Creates `dir` (and parents) if needed and takes the writer lock.
  /// Fails if the directory already contains a manifest — Create() writes
  /// a workspace once; use OpenForAppend() to add rows later. The writer
  /// then runs exactly as OpenForAppend() on an empty workspace: every
  /// table it writes is a new one.
  [[nodiscard]]
  static Result<std::unique_ptr<DiskCatalogWriter>> Create(
      std::filesystem::path dir, std::string catalog_name,
      DiskStoreOptions options = {});

  /// Reopens an existing workspace to append rows. BeginTable() on a table
  /// already in the manifest enters append mode for it: it cuts the table
  /// file back to its committed bytes, AddColumn() must re-declare the
  /// existing columns in order (values widen to the sealed column type
  /// where safe — integer into double, anything into string), AppendRow()
  /// adds blocks past the committed bytes, and FinishTable() reseals the
  /// per-column statistics by merging old and new block dictionaries.
  /// Unknown tables are created as usual. Nothing is committed until
  /// Finish() atomically rewrites the manifest: a crash mid-append leaves a
  /// torn tail past the committed byte counts that readers never see and
  /// the next append to the table cuts away. The writer lock is taken
  /// before the manifest is read; a directory without a manifest fails as
  /// before and gets no lock file.
  [[nodiscard]]
  static Result<std::unique_ptr<DiskCatalogWriter>> OpenForAppend(
      std::filesystem::path dir, DiskStoreOptions options = {});

  ~DiskCatalogWriter() override;

  [[nodiscard]]
  Status BeginTable(const std::string& name) override;
  [[nodiscard]]
  Status AddColumn(std::string name, TypeId type,
                   bool declared_unique = false) override;
  [[nodiscard]]
  Status AppendRow(std::vector<Value> row) override;
  [[nodiscard]]
  Status FinishTable() override;
  void DeclareForeignKey(ForeignKey fk) override;

  /// Seals the workspace: writes the manifest, releases the writer lock and
  /// returns the catalog with every column disk-backed.
  [[nodiscard]]
  Result<std::unique_ptr<Catalog>> Finish() override;

 private:
  class ColumnWriter;
  class Encoder;
  struct AppendState;
  struct TableFile;

  DiskCatalogWriter(std::filesystem::path dir, DiskStoreOptions options,
                    std::unique_ptr<AppendState> append, ScopedFd lock);

  std::filesystem::path dir_;
  DiskStoreOptions options_;
  std::string table_name_;
  // The open table's ".col" file, which every column writer appends to.
  std::unique_ptr<TableFile> table_file_;
  std::vector<std::unique_ptr<ColumnWriter>> column_writers_;
  int64_t table_rows_ = 0;
  bool table_open_ = false;
  bool finished_ = false;
  // The workspace Finish() commits; never null. Create() starts it from an
  // empty manifest, so every new table is an append to a workspace that
  // does not hold it yet.
  std::unique_ptr<AppendState> append_;
  // The flock'd kDiskStoreLockName, held until Finish() commits.
  ScopedFd lock_;
  // Encodes and seals the open table's columns on the writer's pool;
  // never null. The destructor stops it before the column writers go.
  std::unique_ptr<Encoder> encoder_;
};

/// True when `dir` holds a disk-store workspace (its manifest exists).
bool IsDiskCatalogDir(const std::filesystem::path& dir);

/// Reopens a workspace written by DiskCatalogWriter: rebuilds the catalog
/// (schema, counts, cached statistics) from the manifest; column data stays
/// on disk until cursors stream it.
[[nodiscard]]
Result<std::unique_ptr<Catalog>> OpenDiskCatalog(
    const std::filesystem::path& dir);

}  // namespace spider
