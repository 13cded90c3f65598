// Incremental-profiling benchmarks: what the persistent workspace profile
// (spider_profile.manifest) buys across session restarts and delta
// imports.
//
// Expected shape:
//   * cold — a fresh session over an unprofiled workspace pays full
//     extraction and verification (tuples_read > 0, sets_extracted > 0);
//   * warm — a fresh session over a sealed profile answers every candidate
//     from remembered verdicts: zero extraction, zero set reads, wall
//     clock dominated by fingerprint checks;
//   * append-then-profile — after rows land in one table, only the
//     candidates touching it revalidate; the counters sit strictly
//     between cold and warm.
//
// The work counters (tuples_read, sets_extracted, verdicts_reused,
// candidates_revalidated) and the sealed manifest's size (manifest_bytes)
// are deterministic and gate the bench-regression job; wall clock is
// advisory.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/extsort/profile_store.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/disk_store.h"

namespace spider::bench {
namespace {

constexpr int64_t kParentRows = 4000;
constexpr int64_t kChildRows = kParentRows / 2;
constexpr int64_t kAppendRows = kParentRows / 16;

// One wide parent with per-row-unique columns and two children copying
// row slices, so every child column is included in the corresponding
// parent column. Appends extend child0 with further parent rows, keeping
// the IND set stable while moving child0's statistics.
Status FillSink(CatalogSink& sink) {
  auto value = [](const char* family, int64_t i) {
    return Value::String(std::string(family) + "-" + std::to_string(i));
  };
  SPIDER_RETURN_NOT_OK(sink.BeginTable("parent"));
  for (const char* name : {"a", "b", "c", "d"}) {
    SPIDER_RETURN_NOT_OK(sink.AddColumn(name, TypeId::kString));
  }
  for (int64_t i = 0; i < kParentRows; ++i) {
    SPIDER_RETURN_NOT_OK(sink.AppendRow(
        {value("a", i), value("b", i), value("c", i), value("d", i)}));
  }
  SPIDER_RETURN_NOT_OK(sink.FinishTable());

  for (int child = 0; child < 2; ++child) {
    SPIDER_RETURN_NOT_OK(sink.BeginTable("child" + std::to_string(child)));
    for (const char* name : {"a", "b"}) {
      SPIDER_RETURN_NOT_OK(sink.AddColumn(name, TypeId::kString));
    }
    const int64_t offset = child * (kParentRows / 8);
    for (int64_t i = 0; i < kChildRows; ++i) {
      SPIDER_RETURN_NOT_OK(
          sink.AppendRow({value("a", offset + i), value("b", offset + i)}));
    }
    SPIDER_RETURN_NOT_OK(sink.FinishTable());
  }
  return Status::OK();
}

// The pristine disk workspace, built once. TempDir and catalog leak
// intentionally (static storage) so the workspace survives to process
// exit.
const std::filesystem::path& PristineWorkspace() {
  static auto* holder = [] {
    auto dir = TempDir::Make("bench-incremental");
    SPIDER_CHECK(dir.ok());
    const std::filesystem::path workspace = (*dir)->path() / "pristine";
    auto writer = DiskCatalogWriter::Create(workspace, "bench");
    SPIDER_CHECK(writer.ok()) << writer.status().ToString();
    SPIDER_CHECK(FillSink(**writer).ok());
    auto catalog = (*writer)->Finish();
    SPIDER_CHECK(catalog.ok()) << catalog.status().ToString();
    return new std::pair<std::unique_ptr<TempDir>, std::filesystem::path>(
        std::move(*dir), workspace);
  }();
  return holder->second;
}

// A persisted-profile session run over `workspace` (set files and
// spider_profile.manifest live in the workspace itself, the CLI layout).
SessionReport PersistedRun(const std::filesystem::path& workspace) {
  auto catalog = OpenDiskCatalog(workspace);
  SPIDER_CHECK(catalog.ok()) << catalog.status().ToString();
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SpiderSession session(std::move(*catalog), session_options);
  RunOptions options;
  options.approach = "spider-merge";
  auto report = session.Run(options);
  SPIDER_CHECK(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

void ReportProfileRun(benchmark::State& state, const SessionReport& report,
                      const std::filesystem::path& workspace) {
  state.counters["candidates"] =
      static_cast<double>(report.candidates.candidates.size());
  state.counters["satisfied"] =
      static_cast<double>(report.run.satisfied.size());
  state.counters["tuples_read"] =
      static_cast<double>(report.run.counters.tuples_read);
  state.counters["sets_extracted"] =
      static_cast<double>(report.run.counters.sets_extracted);
  state.counters["sets_reused"] =
      static_cast<double>(report.run.counters.sets_reused);
  state.counters["verdicts_reused"] =
      static_cast<double>(report.verdicts_reused);
  state.counters["candidates_revalidated"] =
      static_cast<double>(report.candidates_revalidated);
  state.counters["finished"] = report.run.finished ? 1 : 0;
  state.counters["manifest_bytes"] = static_cast<double>(
      std::filesystem::file_size(workspace / kProfileManifestName));
}

// Copies the pristine workspace so each iteration starts from a known
// profile state (absent, or sealed by `profiled` runs).
std::filesystem::path CloneWorkspace(const std::filesystem::path& from,
                                     const std::string& tag, bool profiled) {
  const std::filesystem::path clone = from.parent_path() / tag;
  std::filesystem::remove_all(clone);
  std::filesystem::copy(from, clone,
                        std::filesystem::copy_options::recursive);
  if (profiled) (void)PersistedRun(clone);
  return clone;
}

// Cold: fresh session, no profile on disk — full extraction + merges.
void BM_ProfileCold(benchmark::State& state) {
  SessionReport last;
  std::filesystem::path workspace;
  for (auto _ : state) {
    state.PauseTiming();
    workspace = CloneWorkspace(PristineWorkspace(), "cold", /*profiled=*/false);
    state.ResumeTiming();
    last = PersistedRun(workspace);
  }
  ReportProfileRun(state, last, workspace);
}
BENCHMARK(BM_ProfileCold)->Unit(benchmark::kMillisecond);

// Warm: the profile is sealed; a restarted session reuses every verdict.
void BM_ProfileWarm(benchmark::State& state) {
  const std::filesystem::path workspace =
      CloneWorkspace(PristineWorkspace(), "warm", /*profiled=*/true);
  SessionReport last;
  for (auto _ : state) {
    last = PersistedRun(workspace);
  }
  ReportProfileRun(state, last, workspace);
}
BENCHMARK(BM_ProfileWarm)->Unit(benchmark::kMillisecond);

// Append rows to child0, then profile: only child0's candidates
// revalidate (delta revalidation), the rest reuse their verdicts.
void BM_AppendThenProfile(benchmark::State& state) {
  SessionReport last;
  std::filesystem::path workspace;
  for (auto _ : state) {
    state.PauseTiming();
    workspace = CloneWorkspace(PristineWorkspace(), "append", /*profiled=*/true);
    state.ResumeTiming();
    auto writer = DiskCatalogWriter::OpenForAppend(workspace);
    SPIDER_CHECK(writer.ok()) << writer.status().ToString();
    SPIDER_CHECK((*writer)->BeginTable("child0").ok());
    SPIDER_CHECK((*writer)->AddColumn("a", TypeId::kString).ok());
    SPIDER_CHECK((*writer)->AddColumn("b", TypeId::kString).ok());
    for (int64_t i = 0; i < kAppendRows; ++i) {
      const int64_t row = kChildRows + i;  // still within the parent range
      SPIDER_CHECK(
          (*writer)
              ->AppendRow({Value::String("a-" + std::to_string(row)),
                           Value::String("b-" + std::to_string(row))})
              .ok());
    }
    SPIDER_CHECK((*writer)->FinishTable().ok());
    auto appended = (*writer)->Finish();
    SPIDER_CHECK(appended.ok()) << appended.status().ToString();
    last = PersistedRun(workspace);
  }
  ReportProfileRun(state, last, workspace);
}
BENCHMARK(BM_AppendThenProfile)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spider::bench

BENCHMARK_MAIN();
