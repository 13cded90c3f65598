// Persistent-profile tests: a sealed workspace profile survives session
// restarts (warm runs re-verify nothing and re-extract nothing), appends
// invalidate exactly the entries whose source columns changed, and any
// corruption of the profile artifacts — manifest or set files — degrades
// to a clean recompute with byte-identical results, never a crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/temp_dir.h"
#include "src/extsort/profile_store.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/report_json.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// A three-table dump with string-typed columns (append-stable types):
// orders.customer ⊆ customers.id, and archive.id == customers.id so the
// archive↔customers candidates never touch an orders append.
void WriteDump(const std::filesystem::path& csv_dir) {
  ASSERT_TRUE(std::filesystem::create_directories(csv_dir));
  WriteFile(csv_dir / "orders.csv", "id,customer\no1,c1\no2,c2\no3,c1\n");
  WriteFile(csv_dir / "customers.csv", "id,city\nc1,x1\nc2,x2\nc3,x2\n");
  WriteFile(csv_dir / "archive.csv", "id\nc1\nc2\nc3\n");
}

// Imports `csv_dir` as a fresh disk workspace at `workspace`.
Result<std::unique_ptr<Catalog>> ImportWorkspace(
    const std::filesystem::path& csv_dir,
    const std::filesystem::path& workspace) {
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<DiskCatalogWriter> writer,
      DiskCatalogWriter::Create(workspace, "wsp", DiskStoreOptions{}));
  return ImportCsvDirectory(csv_dir, CsvOptions{}, *writer);
}

// One profiling run over `workspace` in a brand-new session whose set
// files and profile live in the workspace itself (the CLI's layout for
// `spider profile <workspace-dir>`).
Result<SessionReport> PersistedRun(
    const std::filesystem::path& workspace, bool profile_cache = true,
    int64_t sort_memory_budget_bytes =
        SessionOptions{}.sort_memory_budget_bytes,
    const std::string& approach = "spider-merge") {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          OpenDiskCatalog(workspace));
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  session_options.sort_memory_budget_bytes = sort_memory_budget_bytes;
  SpiderSession session(std::move(catalog), session_options);
  RunOptions options;
  options.approach = approach;
  options.profile_cache = profile_cache;
  return session.Run(options);
}

TEST(ProfilePersistenceTest, WarmSessionReusesEverythingAcrossRestart) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto imported = ImportWorkspace(root / "csv", root / "wsp");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  auto cold = PersistedRun(root / "wsp");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->run.finished);
  ASSERT_FALSE(cold->run.satisfied.empty());
  EXPECT_TRUE(testing::ToSet(cold->run.satisfied)
                  .contains(Ind{{"orders", "customer"}, {"customers", "id"}}));
  EXPECT_GT(cold->run.counters.sets_extracted, 0);
  EXPECT_EQ(cold->verdicts_reused, 0);
  EXPECT_FALSE(cold->profile_reused);
  EXPECT_TRUE(
      std::filesystem::exists(root / "wsp" / kProfileManifestName));

  // A fresh session over the same workspace — the daemon-restart case —
  // answers every candidate from the profile: no extraction, no set reads.
  auto warm = PersistedRun(root / "wsp");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->run.finished);
  EXPECT_EQ(warm->run.satisfied, cold->run.satisfied);
  EXPECT_TRUE(warm->profile_reused);
  EXPECT_EQ(warm->verdicts_reused,
            static_cast<int64_t>(warm->candidates.candidates.size()));
  EXPECT_EQ(warm->candidates_revalidated, 0);
  EXPECT_EQ(warm->run.counters.sets_extracted, 0);
  EXPECT_EQ(warm->run.counters.tuples_read, 0);
}

TEST(ProfilePersistenceTest, NoProfileCacheForcesReverification) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto imported = ImportWorkspace(root / "csv", root / "wsp");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto cold = PersistedRun(root / "wsp");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // profile_cache=false hands every candidate to the algorithm again; only
  // the extractor's set-file reuse (always sound) remains.
  auto warm = PersistedRun(root / "wsp", /*profile_cache=*/false);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->run.satisfied, cold->run.satisfied);
  EXPECT_EQ(warm->verdicts_reused, 0);
  EXPECT_EQ(warm->candidates_revalidated,
            static_cast<int64_t>(warm->candidates.candidates.size()));
  EXPECT_GT(warm->run.counters.sets_reused, 0);
  EXPECT_EQ(warm->run.counters.sets_extracted, 0);
}

// A verdict is a fact about the data, not about the approach that decided
// it: every exact verifier answers from, and records into, the one
// persisted profile, whether or not it reads set files.
TEST(ProfilePersistenceTest, EveryExactVerifierSharesTheVerdicts) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto run = [](const std::filesystem::path& workspace,
                const std::string& approach) -> Result<SessionReport> {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            OpenDiskCatalog(workspace));
    SessionOptions session_options;
    session_options.work_dir = workspace.string();
    session_options.persist_profile = true;
    SpiderSession session(std::move(catalog), session_options);
    RunOptions options;
    options.approach = approach;
    return session.Run(options);
  };
  auto expect_all_reused = [](const Result<SessionReport>& warm,
                              const SessionReport& cold) {
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->verdicts_reused,
              static_cast<int64_t>(warm->candidates.candidates.size()));
    EXPECT_EQ(warm->candidates_revalidated, 0);
    EXPECT_EQ(warm->run.satisfied, cold.run.satisfied);
  };

  // Sealed by a set-reading verifier, reused by the others.
  ASSERT_TRUE(ImportWorkspace(root / "csv", root / "merge").ok());
  auto merge = run(root / "merge", "spider-merge");
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_GT(merge->candidates.candidates.size(), 0u);
  ASSERT_FALSE(merge->run.satisfied.empty());
  for (const std::string approach :
       {"sql-join", "de-marchi", "bell-brockhausen"}) {
    SCOPED_TRACE(approach);
    expect_all_reused(run(root / "merge", approach), *merge);
  }

  // Sealed by a verifier that reads no set, reused by spider-merge.
  ASSERT_TRUE(ImportWorkspace(root / "csv", root / "join").ok());
  auto join = run(root / "join", "sql-join");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join->verdicts_reused, 0);
  EXPECT_EQ(join->run.satisfied, merge->run.satisfied);
  EXPECT_TRUE(
      std::filesystem::exists(root / "join" / kProfileManifestName));
  auto reused = run(root / "join", "spider-merge");
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  expect_all_reused(reused, *join);
  EXPECT_EQ(reused->run.counters.sets_extracted, 0);
}

TEST(ProfilePersistenceTest, AppendRevalidatesOnlyCandidatesTouchingTheTable) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto imported = ImportWorkspace(root / "csv", root / "wsp");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto cold = PersistedRun(root / "wsp");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Append one row to `orders` only.
  const std::filesystem::path delta = root / "delta";
  ASSERT_TRUE(std::filesystem::create_directories(delta));
  WriteFile(delta / "orders.csv", "id,customer\no4,c3\n");
  auto writer = DiskCatalogWriter::OpenForAppend(root / "wsp",
                                                 DiskStoreOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto appended = ImportCsvDirectory(delta, CsvOptions{}, **writer);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  auto warm = PersistedRun(root / "wsp");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->run.finished);

  // Exactly the candidates with an `orders` side were re-verified; every
  // archive↔customers candidate came out of the profile.
  int64_t touching = 0;
  const std::vector<AttributeRef>& attributes = warm->candidates.attributes;
  for (const AttributePair& candidate : warm->candidates.candidates) {
    if (attributes[candidate.dependent].table == "orders" ||
        attributes[candidate.referenced].table == "orders") {
      ++touching;
    }
  }
  ASSERT_GT(touching, 0);
  ASSERT_LT(touching,
            static_cast<int64_t>(warm->candidates.candidates.size()));
  EXPECT_EQ(warm->candidates_revalidated, touching);
  EXPECT_EQ(warm->verdicts_reused,
            static_cast<int64_t>(warm->candidates.candidates.size()) -
                touching);
  EXPECT_TRUE(warm->profile_reused);

  // The delta result equals a from-scratch profile of the grown workspace
  // (scratch session: temp work dir, no profile).
  auto reopened = OpenDiskCatalog(root / "wsp");
  ASSERT_TRUE(reopened.ok());
  SpiderSession scratch(std::move(*reopened));
  RunOptions options;
  options.approach = "spider-merge";
  auto scratch_report = scratch.Run(options);
  ASSERT_TRUE(scratch_report.ok());
  EXPECT_EQ(warm->run.satisfied, scratch_report->run.satisfied);
  EXPECT_TRUE(testing::ToSet(warm->run.satisfied)
                  .contains(Ind{{"orders", "customer"}, {"customers", "id"}}));
}

TEST(ProfilePersistenceTest, FailedSaveIsReportedAndTheNextRunSeals) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto imported = ImportWorkspace(root / "csv", root / "wsp");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  const std::filesystem::path manifest = root / "wsp" / kProfileManifestName;

  // A directory squatting on the manifest's path makes ProfileStore::Save
  // fail: renaming the written temp file over it is EISDIR, even as root.
  const std::filesystem::path blocker = manifest;
  ASSERT_TRUE(std::filesystem::create_directories(blocker));
  auto unsaved = PersistedRun(root / "wsp");
  ASSERT_TRUE(unsaved.ok()) << unsaved.status().ToString();
  // The run's results stand; the failure is reported, not swallowed.
  EXPECT_TRUE(unsaved->run.finished);
  EXPECT_TRUE(testing::ToSet(unsaved->run.satisfied)
                  .contains(Ind{{"orders", "customer"}, {"customers", "id"}}));
  ASSERT_FALSE(unsaved->profile_save_error.empty());
  EXPECT_NE(unsaved->ToString().find(unsaved->profile_save_error),
            std::string::npos);
  EXPECT_NE(SessionReportToJson(*unsaved, ReportJsonContext{})
                .find("\"profile_save_error\":"),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::is_regular_file(manifest));
  // The failed save removed its temp file.
  for (const auto& entry : std::filesystem::directory_iterator(root / "wsp")) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
              std::string::npos)
        << entry.path();
  }

  // With the obstacle gone the next run seals, and reports no error.
  std::filesystem::remove_all(blocker);
  auto sealed = PersistedRun(root / "wsp");
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_TRUE(sealed->profile_save_error.empty());
  EXPECT_EQ(sealed->run.satisfied, unsaved->run.satisfied);
  EXPECT_EQ(SessionReportToJson(*sealed, ReportJsonContext{})
                .find("profile_save_error"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(manifest));
  auto warm = PersistedRun(root / "wsp");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->verdicts_reused,
            static_cast<int64_t>(warm->candidates.candidates.size()));
  EXPECT_EQ(warm->run.satisfied, unsaved->run.satisfied);
}

// A dump large enough that a small sort budget spills every composite
// set: (orders.customer, orders.code) ⊆ (customers.id, customers.code).
void WriteSpillingDump(const std::filesystem::path& csv_dir) {
  ASSERT_TRUE(std::filesystem::create_directories(csv_dir));
  std::string orders = "id,customer,code\n";
  std::string customers = "id,code,city\n";
  for (int i = 0; i < 600; ++i) {
    orders += "o" + std::to_string(i) + ",c" + std::to_string(i % 200) +
              ",k" + std::to_string(i % 200) + "\n";
  }
  for (int i = 0; i < 400; ++i) {
    customers += "c" + std::to_string(i) + ",k" + std::to_string(i) + ",x" +
                 std::to_string(i % 7) + "\n";
  }
  WriteFile(csv_dir / "orders.csv", orders);
  WriteFile(csv_dir / "customers.csv", customers);
}

TEST(ProfilePersistenceTest, ConcurrentSessionsShareOneWorkspace) {
  // Two sessions over one workspace at once, each with its own extractor
  // — what two `spider profile --approach=nary` processes on one workspace
  // are. They extract the same sets into the same directory under the
  // same names, the composite ones through sorts that spill at the same
  // time, and both seal the profile.
  auto dir = TempDir::Make("spider-profile-shared");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteSpillingDump(root / "csv");
  const std::filesystem::path pristine = root / "pristine";
  auto imported = ImportWorkspace(root / "csv", pristine);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  // The reference: a scratch session (temp work dir, no profile).
  auto catalog = OpenDiskCatalog(pristine);
  ASSERT_TRUE(catalog.ok());
  SpiderSession scratch(std::move(*catalog));
  RunOptions options;
  options.approach = "nary";
  auto expected = scratch.Run(options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_TRUE(testing::ToSet(expected->run.satisfied)
                  .contains(Ind{{"orders", "customer"}, {"customers", "id"}}));
  EXPECT_FALSE(expected->nary_run.satisfied.empty());

  // Small enough that every composite set of WriteSpillingDump spills.
  constexpr int64_t kSortBudget = 1024;
  for (int copy = 0; copy < 20; ++copy) {
    SCOPED_TRACE("copy " + std::to_string(copy));
    const std::filesystem::path workspace =
        root / ("copy-" + std::to_string(copy));
    std::filesystem::copy(pristine, workspace,
                          std::filesystem::copy_options::recursive);
    // What a run killed mid-extraction leaves: its scratch directory with
    // a spill run in it, and a half-written set beside it.
    const std::filesystem::path orphan = workspace / ".extract.tmp-1-0";
    ASSERT_TRUE(std::filesystem::create_directory(orphan));
    WriteFile(orphan / "orders.set-0.spill.tmp-1-1", "spill");
    WriteFile(workspace / ".extract.tmp-1-0.orders.set.tmp-1-2", "half");
    std::optional<Result<SessionReport>> second;
    std::thread other([&] {
      second.emplace(PersistedRun(workspace, true, kSortBudget, "nary"));
    });
    Result<SessionReport> first =
        PersistedRun(workspace, true, kSortBudget, "nary");
    other.join();
    for (const Result<SessionReport>* report : {&first, &*second}) {
      ASSERT_TRUE(report->ok()) << report->status().ToString();
      EXPECT_TRUE((*report)->run.finished);
      EXPECT_TRUE((*report)->nary_run.finished);
      EXPECT_TRUE((*report)->profile_save_error.empty())
          << (*report)->profile_save_error;
      EXPECT_EQ((*report)->run.satisfied, expected->run.satisfied);
      EXPECT_EQ((*report)->nary_run.satisfied, expected->nary_run.satisfied);
    }
    auto third = PersistedRun(workspace, true, kSortBudget);
    ASSERT_TRUE(third.ok()) << third.status().ToString();
    EXPECT_EQ(third->run.satisfied, expected->run.satisfied);
    EXPECT_EQ(third->verdicts_reused,
              static_cast<int64_t>(third->candidates.candidates.size()));
    EXPECT_EQ(third->run.counters.sets_extracted, 0);
    // The orphan was swept and every run cleaned up after itself.
    for (const auto& entry : std::filesystem::directory_iterator(workspace)) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
                std::string::npos)
          << entry.path();
    }
    std::filesystem::remove_all(workspace);
  }
}

TEST(ProfilePersistenceTest, SetReplacedByAnotherCommitFailsTheRun) {
  // Runs at two commits of one workspace publish different bytes under
  // one set-file name. A run whose set was replaced after it was served
  // may have read the other commit's values: it must neither return nor
  // record them.
  auto dir = TempDir::Make("spider-profile-replaced");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  const std::filesystem::path workspace = root / "wsp";
  auto imported = ImportWorkspace(root / "csv", workspace);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto catalog = OpenDiskCatalog(workspace);
  ASSERT_TRUE(catalog.ok());
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SpiderSession session(std::move(*catalog), session_options);
  RunOptions options;
  options.approach = "spider-merge";
  auto cold = session.Run(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Every later run of this session verifies again from the sets it was
  // served, recording nothing.
  options.profile_cache = false;
  const std::filesystem::path set =
      workspace / ValueSetExtractor::SetFileName({"orders", "customer"});
  auto replace_with = [&](const std::filesystem::path& source) {
    const std::filesystem::path staged = workspace / "staged.tmp-0-0";
    std::filesystem::copy_file(source, staged);
    std::filesystem::rename(staged, set);
  };
  // Equal bytes under a new inode: a concurrent run at the same commit.
  replace_with(set);
  auto same = session.Run(options);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same->run.satisfied, cold->run.satisfied);

  // Other bytes: orders.customer's set now holds customers.city's values.
  replace_with(workspace /
               ValueSetExtractor::SetFileName({"customers", "city"}));
  auto replaced = session.Run(options);
  ASSERT_FALSE(replaced.ok());
  EXPECT_TRUE(replaced.status().IsIOError()) << replaced.status().ToString();
  EXPECT_NE(replaced.status().ToString().find(set.filename().string()),
            std::string::npos)
      << replaced.status().ToString();

  // The profile recorded the bytes the cold run wrote, so a fresh session
  // that reads the sets re-extracts the foreign one instead of reusing it.
  auto fresh = PersistedRun(workspace, /*profile_cache=*/false);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->run.satisfied, cold->run.satisfied);
  EXPECT_EQ(fresh->run.counters.sets_extracted, 1);
}

TEST(ProfilePersistenceTest, DamagedSetFailsOneRunAndTheNextSortsItAgain) {
  // One long-lived session, as spiderd keeps per workspace. A run that
  // reads a damaged set fails; the session must not keep serving that set
  // from its cache, so the next run checks each set's bytes against the
  // profile again and sorts the damaged ones again.
  auto dir = TempDir::Make("spider-profile-damaged");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  const std::filesystem::path workspace = root / "wsp";
  auto imported = ImportWorkspace(root / "csv", workspace);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto catalog = OpenDiskCatalog(workspace);
  ASSERT_TRUE(catalog.ok());
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SpiderSession session(std::move(*catalog), session_options);
  RunOptions options;
  options.approach = "spider-merge";
  options.profile_cache = false;
  auto first = session.Run(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->run.satisfied.empty());

  // Byte 10 is the first payload byte of a set's first record.
  int damaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(workspace)) {
    if (entry.path().extension() != ".set") continue;
    std::fstream file(entry.path(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(10);
    file.put('~');
    ASSERT_TRUE(file.good()) << entry.path();
    ++damaged;
  }
  ASSERT_GT(damaged, 0);

  auto failed = session.Run(options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  auto recovered = session.Run(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->run.counters.sets_extracted, 0);
  EXPECT_EQ(recovered->run.satisfied, first->run.satisfied);
}

// The pre-v2 text manifest for `report`'s verdicts, as the old writer
// sealed it: percent-escaped TSV lines behind a whole-file checksum.
std::string TextManifest(const SessionReport& report) {
  auto hex = [](uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const std::set<Ind> satisfied(report.run.satisfied.begin(),
                                report.run.satisfied.end());
  std::string text = "spider-profile\t1\n";
  const CandidateGraph& graph = report.candidates;
  for (const AttributePair& candidate : graph.candidates) {
    const AttributeRef& dependent = graph.attributes[candidate.dependent];
    const AttributeRef& referenced = graph.attributes[candidate.referenced];
    const uint64_t dependent_fingerprint =
        ProfileStore::StatsFingerprint(graph.stats[candidate.dependent]);
    const uint64_t referenced_fingerprint =
        ProfileStore::StatsFingerprint(graph.stats[candidate.referenced]);
    const bool holds = satisfied.contains(Ind{dependent, referenced});
    // The dump's names hold no byte the old writer percent-escaped.
    text += "verdict\t" + dependent.table + "\t" + dependent.column + "\t" +
            referenced.table + "\t" + referenced.column + "\t" +
            (holds ? "1" : "0") + "\t" + hex(dependent_fingerprint) + "\t" +
            hex(referenced_fingerprint) + "\n";
  }
  text += "end\n";
  return text + "checksum\t" + hex(HashString(text)) + "\n";
}

TEST(ProfilePersistenceTest, TextManifestIsRecomputedOnceAndResealed) {
  auto dir = TempDir::Make("spider-profile-persist");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  auto imported = ImportWorkspace(root / "csv", root / "wsp");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto cold = PersistedRun(root / "wsp");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->run.finished);

  // A workspace sealed before the binary manifest: the same verdicts, in
  // the old text format.
  const std::filesystem::path manifest = root / "wsp" / kProfileManifestName;
  WriteFile(manifest, TextManifest(*cold));

  // The upgrade recomputes once — nothing is reused from the old file —
  // and reseals without error.
  auto upgraded = PersistedRun(root / "wsp");
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  EXPECT_TRUE(upgraded->run.finished);
  EXPECT_EQ(upgraded->run.satisfied, cold->run.satisfied);
  EXPECT_EQ(upgraded->verdicts_reused, 0);
  EXPECT_TRUE(upgraded->profile_save_error.empty())
      << upgraded->profile_save_error;

  // From then on the resealed profile answers every candidate.
  auto warm = PersistedRun(root / "wsp");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->run.satisfied, cold->run.satisfied);
  EXPECT_EQ(warm->verdicts_reused,
            static_cast<int64_t>(warm->candidates.candidates.size()));
  EXPECT_EQ(warm->candidates_revalidated, 0);
}

// ---------------------------------------------------------------------------
// Randomized corruption: whatever happens to the profile artifacts, a
// fresh session must produce the pristine result through a clean Status
// path. The seed is fixed and logged so a failure replays exactly.

enum class Corruption { kTruncate, kBitFlip, kDelete };

void Corrupt(const std::filesystem::path& path, Corruption kind,
             std::mt19937& rng) {
  std::error_code ec;
  const int64_t size =
      static_cast<int64_t>(std::filesystem::file_size(path, ec));
  if (kind == Corruption::kDelete || ec || size == 0) {
    std::filesystem::remove(path, ec);
    return;
  }
  if (kind == Corruption::kTruncate) {
    const int64_t keep = std::uniform_int_distribution<int64_t>(
        0, size - 1)(rng);
    std::filesystem::resize_file(path, static_cast<uintmax_t>(keep), ec);
    ASSERT_FALSE(ec) << path;
    return;
  }
  // Bit flip somewhere in the file.
  const int64_t offset =
      std::uniform_int_distribution<int64_t>(0, size - 1)(rng);
  const int bit = std::uniform_int_distribution<int>(0, 7)(rng);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(offset);
  char byte = 0;
  file.get(byte);
  byte = static_cast<char>(byte ^ (1 << bit));
  file.seekp(offset);
  file.put(byte);
  ASSERT_TRUE(file.good()) << path;
}

TEST(ProfilePersistenceTest, CorruptedArtifactsFallBackToPristineResults) {
  constexpr uint32_t kSeed = 20260808;
  SCOPED_TRACE("corruption seed " + std::to_string(kSeed));
  std::mt19937 rng(kSeed);

  auto dir = TempDir::Make("spider-profile-corrupt");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  WriteDump(root / "csv");
  const std::filesystem::path pristine = root / "pristine";
  auto imported = ImportWorkspace(root / "csv", pristine);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto cold = PersistedRun(pristine);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::vector<Ind> expected = cold->run.satisfied;
  ASSERT_FALSE(expected.empty());

  // The corruptible artifacts: the profile manifest plus every set file.
  // Catalog data (spider_store.manifest, .col files) is the source of
  // truth and stays intact.
  std::vector<std::filesystem::path> targets = {pristine /
                                                kProfileManifestName};
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    if (entry.path().extension() == ".set") targets.push_back(entry.path());
  }
  ASSERT_GT(targets.size(), 1u);

  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::filesystem::path scratch =
        root / ("round-" + std::to_string(round));
    std::filesystem::copy(pristine, scratch,
                          std::filesystem::copy_options::recursive);
    // One to three independent corruptions per round.
    const int hits = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int hit = 0; hit < hits; ++hit) {
      const auto& victim = targets[std::uniform_int_distribution<size_t>(
          0, targets.size() - 1)(rng)];
      const auto kind = static_cast<Corruption>(
          std::uniform_int_distribution<int>(0, 2)(rng));
      Corrupt(scratch / victim.filename(), kind, rng);
    }
    auto report = PersistedRun(scratch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->run.finished);
    EXPECT_EQ(report->run.satisfied, expected);
    std::filesystem::remove_all(scratch);
  }
}

}  // namespace
}  // namespace spider
