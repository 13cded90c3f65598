// Storage-backend microbenchmarks: streaming import throughput into the
// out-of-core disk store (from values, and from a CSV dump through the
// record reader), and full-column scan speed per backend.
//
// Expected shape:
//   * disk import is dominated by dictionary building + block writes and
//     stays bounded-memory regardless of row count; the atom_site shape
//     (every coordinate a distinct 17-digit double) stresses canonical
//     rendering and dictionary inserts, the mixed shape repeats values;
//   * CSV import adds the record reader and Value::Parse on top;
//   * disk_bytes lands well under the materialized footprint on
//     repetitive columns (dictionary + front coding);
//   * cursor scans over the disk backend stay within a small factor of
//     the in-memory scan — the profiling pipeline reads every value
//     through this path.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace spider::bench {
namespace {

// One synthetic table: a surrogate id, a low-cardinality category column
// (dictionary-friendly), and a mostly distinct payload column.
Status FillSink(CatalogSink& sink, int64_t rows) {
  SPIDER_RETURN_NOT_OK(sink.BeginTable("t"));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("id", TypeId::kInteger));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("category", TypeId::kString));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("payload", TypeId::kString));
  for (int64_t i = 0; i < rows; ++i) {
    SPIDER_RETURN_NOT_OK(sink.AppendRow(
        {Value::Integer(i), Value::String("cat-" + std::to_string(i % 64)),
         Value::String("payload-value-" + std::to_string(i % 50021))}));
  }
  return sink.FinishTable();
}

// The shape of rows_cold's dominating table: a unique integer id plus
// three coordinates drawn uniformly from ±100 at full double precision.
Status FillAtomSite(CatalogSink& sink, int64_t rows) {
  SPIDER_RETURN_NOT_OK(sink.BeginTable("atom_site"));
  SPIDER_RETURN_NOT_OK(sink.AddColumn("id", TypeId::kInteger));
  for (const char* axis : {"cartn_x", "cartn_y", "cartn_z"}) {
    SPIDER_RETURN_NOT_OK(sink.AddColumn(axis, TypeId::kDouble));
  }
  Random rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    SPIDER_RETURN_NOT_OK(
        sink.AppendRow({Value::Integer(i),
                        Value::Double(rng.NextDouble() * 200 - 100),
                        Value::Double(rng.NextDouble() * 200 - 100),
                        Value::Double(rng.NextDouble() * 200 - 100)}));
  }
  return sink.FinishTable();
}

using FillFn = Status (*)(CatalogSink&, int64_t);

Result<std::unique_ptr<Catalog>> BuildCatalog(StorageBackend backend,
                                              const TempDir& dir,
                                              int64_t rows,
                                              const std::string& tag,
                                              FillFn fill = FillSink) {
  if (backend == StorageBackend::kMemory) {
    MemoryCatalogSink sink("bench");
    SPIDER_RETURN_NOT_OK(fill(sink, rows));
    return sink.Finish();
  }
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<DiskCatalogWriter> writer,
      DiskCatalogWriter::Create(dir.path() / ("ws-" + tag), "bench"));
  SPIDER_RETURN_NOT_OK(fill(*writer, rows));
  return writer->Finish();
}

void BM_DiskImport(benchmark::State& state, FillFn fill) {
  const int64_t rows = state.range(0);
  auto dir = TempDir::Make("bench-storage");
  SPIDER_CHECK(dir.ok());
  int iteration = 0;
  int64_t disk_bytes = 0;
  for (auto _ : state) {
    auto catalog = BuildCatalog(StorageBackend::kDisk, **dir, rows,
                                std::to_string(iteration++), fill);
    SPIDER_CHECK(catalog.ok()) << catalog.status().ToString();
    disk_bytes = (*catalog)->ApproximateByteSize();
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["disk_bytes"] = static_cast<double>(disk_bytes);
}
// The mixed shape keeps the family's original name, BM_DiskImport/100000.
BENCHMARK_CAPTURE(BM_DiskImport, mixed, FillSink)
    ->Name("BM_DiskImport")
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DiskImport, atom_site, FillAtomSite)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// A CSV dump of both shapes (written once, with "#types:" lines, so no
// inference pass) imported through ImportCsvDirectory: the record reader,
// Value::Parse and the disk writer.
void BM_CsvImport(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto dir = TempDir::Make("bench-storage");
  SPIDER_CHECK(dir.ok());
  const auto csv = (*dir)->path() / "csv";
  std::filesystem::create_directories(csv);
  CsvCatalogSink dump(csv);
  SPIDER_CHECK(FillSink(dump, rows).ok());
  SPIDER_CHECK(FillAtomSite(dump, rows).ok());
  SPIDER_CHECK(dump.Finish().ok());
  int iteration = 0;
  int64_t disk_bytes = 0;
  for (auto _ : state) {
    auto writer = DiskCatalogWriter::Create(
        (*dir)->path() / ("ws-" + std::to_string(iteration++)), "bench");
    SPIDER_CHECK(writer.ok()) << writer.status().ToString();
    auto catalog = ImportCsvDirectory(csv, CsvOptions{}, **writer);
    SPIDER_CHECK(catalog.ok()) << catalog.status().ToString();
    disk_bytes = (*catalog)->ApproximateByteSize();
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
  state.counters["disk_bytes"] = static_cast<double>(disk_bytes);
}
BENCHMARK(BM_CsvImport)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ColumnScan(benchmark::State& state, StorageBackend backend) {
  const int64_t rows = 200000;
  auto dir = TempDir::Make("bench-storage");
  SPIDER_CHECK(dir.ok());
  auto catalog = BuildCatalog(backend, **dir, rows, "scan");
  SPIDER_CHECK(catalog.ok()) << catalog.status().ToString();
  const Column& column = *(*catalog)->FindTable("t")->FindColumn("payload");
  int64_t values = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    auto cursor = column.OpenCursor();
    SPIDER_CHECK(cursor.ok());
    std::string_view view;
    values = 0;
    bytes = 0;
    for (CursorStep step = (*cursor)->Next(&view); step != CursorStep::kEnd;
         step = (*cursor)->Next(&view)) {
      if (step == CursorStep::kValue) {
        ++values;
        bytes += static_cast<int64_t>(view.size());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * values);
  state.counters["values"] = static_cast<double>(values);
  state.counters["value_bytes"] = static_cast<double>(bytes);
}
BENCHMARK_CAPTURE(BM_ColumnScan, memory, StorageBackend::kMemory)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ColumnScan, disk, StorageBackend::kDisk)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  std::cout << "=== Storage backends: import throughput and scan speed ===\n"
               "Expected shape: disk import bounded-memory with compressed "
               "blocks; disk scans within a\nsmall factor of memory scans.\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
