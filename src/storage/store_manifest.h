// The store manifest of a disk-store workspace, "spider_store.manifest":
// the catalog's schema, each table's ".col" file and committed bytes, each
// column's block offsets and statistics, and the declared foreign keys.
// DiskCatalogWriter::Finish commits it; OpenDiskCatalog rebuilds the
// catalog from it without reading a table file.
//
// The codec is pure, bytes to struct and back, and its format is private
// to store_manifest.cc. DecodeStoreManifest reads through SpanReader and
// checks everything the bytes alone can tell: a file name that would leave
// the workspace, block offsets a reader would take on trust, counts a
// reader would size an allocation by. What needs the file system — each
// table file exists and holds its committed bytes — is its caller's check
// (disk_store.cc).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/catalog.h"
#include "src/storage/column_stats.h"
#include "src/storage/type.h"

namespace spider {

struct ManifestColumn {
  std::string name;
  TypeId type = TypeId::kString;
  bool declared_unique = false;
  /// The sum of the column's own block sizes.
  int64_t bytes = 0;
  /// Where the column's blocks start in its table file; strictly ascending.
  std::vector<uint64_t> block_offsets;
  /// The manifest holds the non-null and distinct counts, min and max. The
  /// row count is the table's, and the decoder derives the null count and
  /// verified_unique from them.
  ColumnStats stats;
};

struct ManifestTable {
  std::string name;
  int64_t row_count = 0;
  /// The table's ".col" file: a plain file name inside the workspace.
  std::string file_name;
  /// The file's committed bytes; readers never see a byte past them.
  int64_t file_bytes = 0;
  std::vector<ManifestColumn> columns;
};

struct ManifestData {
  std::string catalog_name;
  int64_t block_bytes = 0;
  std::vector<ManifestTable> tables;
  std::vector<ForeignKey> foreign_keys;
};

/// The manifest bytes of `data`.
std::string EncodeStoreManifest(const ManifestData& data);

/// The manifest `bytes` describe. InvalidArgument with the reason when they
/// are another format or version, damaged or truncated, or describe a
/// workspace no reader may trust.
[[nodiscard]]
Result<ManifestData> DecodeStoreManifest(std::string_view bytes);

}  // namespace spider
