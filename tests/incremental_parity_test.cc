// Delta-vs-scratch parity property test: a workspace grown through random
// append/profile interleavings must be indistinguishable from one imported
// from scratch with the final data — the same satisfied INDs everywhere,
// and byte-identical work counters when both are profiled by a fresh
// session at the same thread count. Seeds are fixed and logged so any
// failure replays exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// One table's rows: (key, value) string pairs. Keys are unique within a
// table so key columns qualify as referenced attributes; t_b's keys are
// mostly drawn from t_a's, so real inclusions appear and appends can both
// preserve and break them.
using Rows = std::vector<std::pair<std::string, std::string>>;

std::string ToCsv(const Rows& rows) {
  std::string text = "k,v\n";
  for (const auto& [k, v] : rows) text += k + "," + v + "\n";
  return text;
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

void WriteDump(const std::filesystem::path& csv_dir,
               const std::map<std::string, Rows>& tables) {
  std::filesystem::create_directories(csv_dir);
  for (const auto& [name, rows] : tables) {
    if (!rows.empty()) WriteFile(csv_dir / (name + ".csv"), ToCsv(rows));
  }
}

Rows RandomRows(std::mt19937& rng, int count, const std::string& key_prefix,
                int* key_counter, const Rows& borrow_keys_from) {
  Rows rows;
  std::uniform_int_distribution<int> value_pool(0, 5);
  for (int i = 0; i < count; ++i) {
    std::string key;
    // Mostly borrow an unused foreign key (making inclusions likely),
    // otherwise mint a fresh one (occasionally breaking them).
    if (!borrow_keys_from.empty() &&
        std::uniform_int_distribution<int>(0, 4)(rng) > 0) {
      key = borrow_keys_from[std::uniform_int_distribution<size_t>(
                                 0, borrow_keys_from.size() - 1)(rng)]
                .first;
    } else {
      key = key_prefix + std::to_string((*key_counter)++);
    }
    rows.emplace_back(key, "v" + std::to_string(value_pool(rng)));
  }
  return rows;
}

// Deduplicates by key so each table's key column stays unique (keys picked
// twice in one draw, or already present in `existing`, are dropped).
Rows UniqueKeys(Rows rows, const Rows& existing) {
  std::map<std::string, bool> seen;
  for (const auto& [k, v] : existing) seen[k] = true;
  Rows out;
  for (auto& row : rows) {
    if (seen.contains(row.first)) continue;
    seen[row.first] = true;
    out.push_back(std::move(row));
  }
  return out;
}

Result<SessionReport> ScratchRun(const Catalog& catalog, int threads) {
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "spider-merge";
  options.threads = threads;
  return session.Run(options);
}

Result<SessionReport> PersistedRun(const std::filesystem::path& workspace) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          OpenDiskCatalog(workspace));
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SpiderSession session(std::move(catalog), session_options);
  RunOptions options;
  options.approach = "spider-merge";
  return session.Run(options);
}

TEST(IncrementalParityTest, InterleavedAppendsMatchFromScratchImport) {
  constexpr uint32_t kBaseSeed = 0x5b1de9;
  for (int iteration = 0; iteration < 4; ++iteration) {
    const uint32_t seed = kBaseSeed + static_cast<uint32_t>(iteration);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(seed));
    std::mt19937 rng(seed);

    auto dir = TempDir::Make("spider-incremental-parity");
    ASSERT_TRUE(dir.ok());
    const std::filesystem::path root = (*dir)->path();

    // Base data plus 1–3 append batches over two tables.
    std::map<std::string, Rows> tables;
    int a_keys = 0;
    int b_keys = 0;
    tables["t_a"] = UniqueKeys(
        RandomRows(rng, std::uniform_int_distribution<int>(6, 14)(rng), "a",
                   &a_keys, {}),
        {});
    tables["t_b"] = UniqueKeys(
        RandomRows(rng, std::uniform_int_distribution<int>(4, 10)(rng), "b",
                   &b_keys, tables["t_a"]),
        {});
    WriteDump(root / "base", tables);

    const std::filesystem::path inc = root / "inc";
    {
      auto writer = DiskCatalogWriter::Create(inc, "inc", DiskStoreOptions{});
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      auto imported = ImportCsvDirectory(root / "base", CsvOptions{},
                                         **writer);
      ASSERT_TRUE(imported.ok()) << imported.status().ToString();
    }

    std::vector<Ind> incremental_satisfied;
    const int batches = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int batch = 0; batch < batches; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      std::map<std::string, Rows> delta;
      delta["t_a"] = UniqueKeys(
          RandomRows(rng, std::uniform_int_distribution<int>(0, 6)(rng), "a",
                     &a_keys, {}),
          tables["t_a"]);
      delta["t_b"] = UniqueKeys(
          RandomRows(rng, std::uniform_int_distribution<int>(1, 6)(rng), "b",
                     &b_keys, tables["t_a"]),
          tables["t_b"]);
      const std::filesystem::path delta_dir =
          root / ("delta-" + std::to_string(batch));
      WriteDump(delta_dir, delta);
      {
        auto writer = DiskCatalogWriter::OpenForAppend(inc,
                                                       DiskStoreOptions{});
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        auto appended = ImportCsvDirectory(delta_dir, CsvOptions{}, **writer);
        ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      }
      for (auto& [name, rows] : delta) {
        tables[name].insert(tables[name].end(), rows.begin(), rows.end());
      }
      // Interleaved profiling: every batch is followed by a persisted run,
      // so later runs revalidate against profiles sealed mid-history.
      auto report = PersistedRun(inc);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report->run.finished);
      incremental_satisfied = report->run.satisfied;
    }

    // From-scratch import of the final data.
    WriteDump(root / "final", tables);
    const std::filesystem::path scratch = root / "scratch";
    {
      auto writer =
          DiskCatalogWriter::Create(scratch, "scratch", DiskStoreOptions{});
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      auto imported = ImportCsvDirectory(root / "final", CsvOptions{},
                                         **writer);
      ASSERT_TRUE(imported.ok()) << imported.status().ToString();
    }

    auto inc_catalog = OpenDiskCatalog(inc);
    ASSERT_TRUE(inc_catalog.ok()) << inc_catalog.status().ToString();
    auto scratch_catalog = OpenDiskCatalog(scratch);
    ASSERT_TRUE(scratch_catalog.ok()) << scratch_catalog.status().ToString();
    auto memory_catalog = ReadCsvDirectory(root / "final");
    ASSERT_TRUE(memory_catalog.ok()) << memory_catalog.status().ToString();

    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      auto inc_report = ScratchRun(**inc_catalog, threads);
      ASSERT_TRUE(inc_report.ok()) << inc_report.status().ToString();
      auto scratch_report = ScratchRun(**scratch_catalog, threads);
      ASSERT_TRUE(scratch_report.ok()) << scratch_report.status().ToString();
      auto memory_report = ScratchRun(**memory_catalog, threads);
      ASSERT_TRUE(memory_report.ok()) << memory_report.status().ToString();

      // The property must not pass vacuously.
      ASSERT_FALSE(scratch_report->candidates.candidates.empty());

      // Same INDs everywhere: appended vs scratch vs memory vs the last
      // interleaved persisted run.
      EXPECT_EQ(inc_report->run.satisfied, scratch_report->run.satisfied);
      EXPECT_EQ(inc_report->run.satisfied, memory_report->run.satisfied);
      EXPECT_EQ(inc_report->run.satisfied, incremental_satisfied);

      // An appended workspace is byte-equivalent to a scratch one: fresh
      // sessions over both do identical work, counter for counter.
      EXPECT_EQ(inc_report->run.counters.ToString(),
                scratch_report->run.counters.ToString());
      EXPECT_EQ(inc_report->candidates.attributes,
                scratch_report->candidates.attributes);
      EXPECT_EQ(inc_report->candidates.candidates,
                scratch_report->candidates.candidates);
    }
  }
}

}  // namespace
}  // namespace spider
