// spiderd service tests: HTTP parsing, the shared run-options/report
// serialization contracts, the job-manager lifecycle, the workspace cache,
// and an end-to-end daemon run on an ephemeral port.
//
// The contract tests are the API-drift guards: the CLI and the daemon must
// reduce to the same ParseRunOptions / SessionReportToJson calls, so a
// request body and a flag list with the same content produce identical
// errors and identical report documents.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/temp_dir.h"
#include "src/common/thread_pool.h"
#include "src/ind/registry.h"
#include "src/ind/report_json.h"
#include "src/ind/run_options_parse.h"
#include "src/ind/session.h"
#include "src/server/http.h"
#include "src/server/job_manager.h"
#include "src/server/server.h"
#include "src/server/workspace_cache.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// HTTP parser

TEST(HttpParserTest, ParsesRequestAcrossFeeds) {
  HttpParser parser;
  ASSERT_TRUE(parser.Feed("POST /jobs?limit=2 HTTP/1.1\r\nHost: x\r\n"
                          "Content-Length: 4\r\n\r\nbo")
                  .ok());
  EXPECT_FALSE(parser.ready());
  ASSERT_TRUE(parser.Feed("dy").ok());
  ASSERT_TRUE(parser.ready());
  HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/jobs");
  EXPECT_EQ(request.query, "limit=2");
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(request.headers.at("host"), "x");
  EXPECT_FALSE(request.want_close);
}

TEST(HttpParserTest, PipelinedKeepAliveRequests) {
  HttpParser parser;
  ASSERT_TRUE(parser.Feed("GET /healthz HTTP/1.1\r\n\r\n"
                          "GET /jobs HTTP/1.1\r\nConnection: close\r\n\r\n")
                  .ok());
  ASSERT_TRUE(parser.ready());
  EXPECT_EQ(parser.TakeRequest().path, "/healthz");
  ASSERT_TRUE(parser.ready());
  HttpRequest second = parser.TakeRequest();
  EXPECT_EQ(second.path, "/jobs");
  EXPECT_TRUE(second.want_close);
  EXPECT_FALSE(parser.ready());
}

TEST(HttpParserTest, Http10DefaultsToClose) {
  HttpParser parser;
  ASSERT_TRUE(parser.Feed("GET / HTTP/1.0\r\n\r\n").ok());
  ASSERT_TRUE(parser.ready());
  EXPECT_TRUE(parser.TakeRequest().want_close);
}

TEST(HttpParserTest, RejectsOversizedBody) {
  HttpParser parser;
  const std::string huge =
      std::to_string(static_cast<uint64_t>(HttpParser::kMaxBodyBytes) + 1);
  Status status =
      parser.Feed("POST /jobs HTTP/1.1\r\nContent-Length: " + huge + "\r\n\r\n");
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpParser parser;
  EXPECT_TRUE(parser.Feed("NONSENSE\r\n\r\n").IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Run-options contract (CLI flags and daemon JSON bodies share this parser)

TEST(RunOptionsParseTest, EmptyInputResolvesHistoricalDefault) {
  auto options = ParseRunOptions({});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->approach, "brute-force");
  EXPECT_EQ(options->threads, 1);
  EXPECT_TRUE(options->block_skip);
}

TEST(RunOptionsParseTest, KindAloneSelectsKindDefaultApproach) {
  auto options = ParseRunOptions({{"kind", "ucc"}});
  ASSERT_TRUE(options.ok());
  auto expected =
      AlgorithmRegistry::Global().DefaultNameForKind(DependencyKind::kUcc);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(options->approach, *expected);
}

TEST(RunOptionsParseTest, SigmaAloneSelectsPartialVerifier) {
  // σ < 1 without an approach resolves to the first registered unary IND
  // verifier with partial coverage, the way a bare kind picks its default.
  for (const std::vector<RunOptionKv>& pairs :
       {std::vector<RunOptionKv>{{"sigma", "0.9"}},
        std::vector<RunOptionKv>{{"kind", "ind"}, {"sigma", "0.9"}}}) {
    auto options = ParseRunOptions(pairs);
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    EXPECT_EQ(options->approach, "spider-merge");
    EXPECT_EQ(options->min_coverage, 0.9);
  }
  // Exact σ keeps the historical default; an explicit approach and a
  // non-IND kind's default both win over the rule.
  auto exact = ParseRunOptions({{"sigma", "1"}});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->approach, "brute-force");
  auto named = ParseRunOptions({{"sigma", "0.9"}, {"approach", "de-marchi"}});
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->approach, "de-marchi");
  auto ucc = ParseRunOptions({{"kind", "ucc"}, {"sigma", "0.9"}});
  ASSERT_TRUE(ucc.ok());
  auto ucc_default =
      AlgorithmRegistry::Global().DefaultNameForKind(DependencyKind::kUcc);
  ASSERT_TRUE(ucc_default.ok());
  EXPECT_EQ(ucc->approach, *ucc_default);
}

TEST(RunOptionsParseTest, UnknownKeySuggestsNearestOption) {
  auto options = ParseRunOptions({{"threds", "2"}});
  ASSERT_TRUE(options.status().IsInvalidArgument());
  EXPECT_NE(options.status().message().find("did you mean '--threads'"),
            std::string::npos)
      << options.status().message();
}

TEST(RunOptionsParseTest, RangeErrorTextMatchesCliFlagText) {
  // The daemon surfaces this verbatim in its 400 body; the CLI prints the
  // same bytes to stderr. Pin the text so neither can drift alone.
  auto options = ParseRunOptions({{"threads", "bogus"}});
  ASSERT_TRUE(options.status().IsInvalidArgument());
  EXPECT_EQ(options.status().message(),
            "--threads must be an integer in [0, 4096] "
            "(0 = hardware concurrency), got 'bogus'");
}

TEST(RunOptionsParseTest, LaterPairsOverrideEarlierOnes) {
  auto options = ParseRunOptions({{"threads", "2"}, {"threads", "4"}});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->threads, 4);
}

TEST(RunOptionsParseTest, BooleanKeysAcceptBareAndJsonSpellings) {
  auto bare = ParseRunOptions({{"no-block-skip", ""}});
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare->block_skip);
  auto json_false = ParseRunOptions({{"no-block-skip", "false"}});
  ASSERT_TRUE(json_false.ok());
  EXPECT_TRUE(json_false->block_skip);
  auto bad = ParseRunOptions({{"block-skip", "maybe"}});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Report serialization contract

TEST(ReportJsonTest, SameReportSerializesToSameBytesOnEveryPath) {
  Catalog catalog("contract");
  testing::AddStringColumn(&catalog, "a", "c", {"1", "2"});
  testing::AddStringColumn(&catalog, "b", "c", {"1", "2", "3"});
  SpiderSession session(catalog);
  RunOptions options;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());

  ReportJsonContext context;
  context.backend = "memory";
  context.tables = 2;
  context.attributes = 2;
  // The CLI and the daemon both call SessionReportToJson on the finished
  // report; identical inputs must yield identical bytes.
  const std::string cli_path = SessionReportToJson(*report, context);
  const std::string daemon_path = SessionReportToJson(*report, context);
  EXPECT_EQ(cli_path, daemon_path);
  EXPECT_EQ(cli_path.find("{\"schema_version\":" +
                          std::to_string(kReportSchemaVersion)),
            0u)
      << cli_path;
  EXPECT_NE(cli_path.find("\"satisfied_inds\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Job manager

void WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000 && !predicate(); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(predicate());
}

TEST(JobManagerTest, QueueRunPollFinish) {
  JobManager manager(1);
  std::atomic<bool> release{false};
  auto id = manager.Submit("ws", "profile test",
                           [&release](const JobControl& control) {
                             control.progress(RunProgress{1, 2, 0});
                             while (!release.load()) {
                               std::this_thread::sleep_for(1ms);
                             }
                             control.progress(RunProgress{2, 2, 0});
                             return Result<std::string>("{\"ok\":true}");
                           });
  ASSERT_TRUE(id.ok());
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kRunning &&
           snapshot->done == 1;
  });
  release.store(true);
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kFinished;
  });
  auto snapshot = manager.Get(*id);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->report_json, "{\"ok\":true}");
  EXPECT_EQ(snapshot->done, 2);
  EXPECT_EQ(snapshot->total, 2);
  EXPECT_EQ(snapshot->workspace, "ws");
  EXPECT_EQ(snapshot->label, "profile test");
}

TEST(JobManagerTest, CancelFlipsTokenAndKeepsPartialReport) {
  JobManager manager(1);
  auto id = manager.Submit("ws", "slow", [](const JobControl& control) {
    while (!control.cancel->cancelled()) {
      std::this_thread::sleep_for(1ms);
    }
    // A cancelled run still returns what it confirmed so far.
    return Result<std::string>("{\"finished\":false}");
  });
  ASSERT_TRUE(id.ok());
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kRunning;
  });
  EXPECT_TRUE(manager.Cancel(*id));
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kCancelled;
  });
  EXPECT_EQ(manager.Get(*id)->report_json, "{\"finished\":false}");
  EXPECT_FALSE(manager.Cancel(999));
  EXPECT_TRUE(manager.Cancel(*id));  // idempotent on terminal jobs
}

TEST(JobManagerTest, BudgetExpiryStoresPartialReportAsFinished) {
  JobManager manager(1);
  // A run whose time budget expired returns normally (token untouched)
  // with finished=false in the document — the job itself completed.
  auto id = manager.Submit("ws", "budget", [](const JobControl&) {
    return Result<std::string>("{\"finished\":false,\"budget_expired\":true}");
  });
  ASSERT_TRUE(id.ok());
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kFinished;
  });
  EXPECT_NE(manager.Get(*id)->report_json.find("\"budget_expired\":true"),
            std::string::npos);
}

TEST(JobManagerTest, FailedJobRecordsError) {
  JobManager manager(1);
  auto id = manager.Submit("ws", "bad", [](const JobControl&) {
    return Result<std::string>(Status::InvalidArgument("broken run"));
  });
  ASSERT_TRUE(id.ok());
  WaitFor([&] {
    auto snapshot = manager.Get(*id);
    return snapshot && snapshot->state == JobState::kFailed;
  });
  EXPECT_NE(manager.Get(*id)->error.find("broken run"), std::string::npos);
}

TEST(JobManagerTest, ShutdownDrainsInFlightJobsIntoPartialReports) {
  JobManager manager(2);
  std::atomic<int> started{0};
  auto job = [&started](const JobControl& control) {
    started.fetch_add(1);
    while (!control.cancel->cancelled()) {
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("{\"finished\":false}");
  };
  auto first = manager.Submit("ws", "drain-1", job);
  auto second = manager.Submit("ws", "drain-2", job);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  WaitFor([&] { return started.load() == 2; });
  manager.Shutdown();  // blocks until the pool drained
  for (int64_t id : {*first, *second}) {
    auto snapshot = manager.Get(id);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->state, JobState::kCancelled);
    EXPECT_EQ(snapshot->report_json, "{\"finished\":false}");
  }
  EXPECT_FALSE(manager.Submit("ws", "late", job).ok());
}

TEST(JobManagerTest, ListReturnsJobsAscendingById) {
  JobManager manager(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager
                    .Submit("ws", "j" + std::to_string(i),
                            [](const JobControl&) {
                              return Result<std::string>("{}");
                            })
                    .ok());
  }
  std::vector<JobSnapshot> jobs = manager.List();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[2].id, 3);
}

// ---------------------------------------------------------------------------
// Workspace cache

void WriteCsv(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good());
}

// Imports a two-table CSV dump as workspace `name` under `root`.
void MakeWorkspace(const std::filesystem::path& root, const std::string& name) {
  const std::filesystem::path csv_dir = root / (name + "-csv");
  ASSERT_TRUE(std::filesystem::create_directories(csv_dir));
  WriteCsv(csv_dir / "orders.csv", "id,ref\n1,1\n2,2\n3,3\n");
  WriteCsv(csv_dir / "customers.csv", "id,name\n1,a\n2,b\n3,c\n4,d\n");
  auto writer = DiskCatalogWriter::Create(root / name, name, DiskStoreOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto catalog = ImportCsvDirectory(csv_dir.string(), CsvOptions{}, **writer);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  std::filesystem::remove_all(csv_dir);
}

TEST(WorkspaceCacheTest, ValidNameRejectsPathTricks) {
  EXPECT_TRUE(WorkspaceCache::ValidName("smoke"));
  EXPECT_TRUE(WorkspaceCache::ValidName("pdb_like-2"));
  EXPECT_FALSE(WorkspaceCache::ValidName(""));
  EXPECT_FALSE(WorkspaceCache::ValidName(".hidden"));
  EXPECT_FALSE(WorkspaceCache::ValidName("a/b"));
  EXPECT_FALSE(WorkspaceCache::ValidName("a\\b"));
  EXPECT_FALSE(WorkspaceCache::ValidName(std::string(300, 'x')));
}

TEST(WorkspaceCacheTest, GetOrOpenCachesOneSessionPerWorkspace) {
  auto dir = TempDir::Make("spider-server-test");
  ASSERT_TRUE(dir.ok());
  MakeWorkspace((*dir)->path(), "smoke");
  WorkspaceCache cache((*dir)->path());
  auto first = cache.GetOrOpen("smoke");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrOpen("smoke");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same long-lived session, shared cache
  EXPECT_TRUE(cache.GetOrOpen("missing").status().IsNotFound());
  EXPECT_TRUE(cache.GetOrOpen("../smoke").status().IsInvalidArgument());
}

TEST(WorkspaceCacheTest, EvictsLeastRecentlyUsedBeyondMaxSessions) {
  auto dir = TempDir::Make("spider-server-test");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  MakeWorkspace(root, "a");
  MakeWorkspace(root, "b");
  MakeWorkspace(root, "c");
  WorkspaceCache cache(root, /*max_sessions=*/2);
  auto a = cache.GetOrOpen("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = cache.GetOrOpen("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.open_session_count(), 2);
  // Touch a: b becomes the least recently used entry...
  ASSERT_TRUE(cache.GetOrOpen("a").ok());
  // ...so opening c evicts b, not a.
  ASSERT_TRUE(cache.GetOrOpen("c").ok());
  EXPECT_EQ(cache.open_session_count(), 2);
  auto a_again = cache.GetOrOpen("a");
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(*a_again, *a);  // survived: same shared session
  auto b_again = cache.GetOrOpen("b");
  ASSERT_TRUE(b_again.ok());
  EXPECT_NE(*b_again, *b);  // evicted: reopened fresh from disk
  // The shared_ptr handed out before eviction stays alive and usable.
  EXPECT_EQ((*b)->catalog().table_count(), size_t{2});
}

// Counts the sorted set files the daemon's extractor materialized for a
// workspace.
int CountSetFiles(const std::filesystem::path& set_dir) {
  int count = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(set_dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".set") ++count;
  }
  return count;
}

TEST(WorkspaceCacheTest, EvictedWorkspaceReopensWithPersistedProfile) {
  auto dir = TempDir::Make("spider-server-test");
  ASSERT_TRUE(dir.ok());
  const std::filesystem::path root = (*dir)->path();
  MakeWorkspace(root, "wsp");
  MakeWorkspace(root, "other");
  WorkspaceCache cache(root, /*max_sessions=*/1);

  RunOptions options;
  options.approach = "spider-merge";

  auto first = cache.GetOrOpen("wsp");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto cold = (*first)->Run(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->run.counters.sets_extracted, 0);
  const int cold_set_files = CountSetFiles(cache.SetCachePath("wsp"));
  EXPECT_GT(cold_set_files, 0);

  // Evict wsp, then reopen it: the new session must answer from the
  // persisted profile — same INDs, no re-extraction, no new set files.
  ASSERT_TRUE(cache.GetOrOpen("other").ok());
  auto reopened = cache.GetOrOpen("wsp");
  ASSERT_TRUE(reopened.ok());
  EXPECT_NE(*reopened, *first);
  auto warm = (*reopened)->Run(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->profile_reused);
  EXPECT_EQ(warm->run.counters.sets_extracted, 0);
  EXPECT_EQ(warm->run.satisfied, cold->run.satisfied);
  EXPECT_EQ(CountSetFiles(cache.SetCachePath("wsp")), cold_set_files);
}

TEST(WorkspaceCacheTest, ListReturnsCatalogDirsOnly) {
  auto dir = TempDir::Make("spider-server-test");
  ASSERT_TRUE(dir.ok());
  MakeWorkspace((*dir)->path(), "beta");
  MakeWorkspace((*dir)->path(), "alpha");
  // Neither a plain directory nor the set cache is a workspace.
  ASSERT_TRUE(std::filesystem::create_directories((*dir)->path() / "notes"));
  WorkspaceCache cache((*dir)->path());
  ASSERT_TRUE(cache.GetOrOpen("alpha").ok());  // materializes .sets-alpha
  auto names = cache.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "beta"}));
}

// ---------------------------------------------------------------------------
// End-to-end daemon

// Minimal blocking HTTP client for the e2e tests: one request per
// connection ("Connection: close"), returns status code and body.
struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse Fetch(int port, const std::string& method,
                     const std::string& path, const std::string& body = "") {
  ClientResponse out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  const size_t line_end = raw.find("\r\n");
  if (line_end != std::string::npos && raw.size() > 12) {
    out.status = std::atoi(raw.substr(9, 3).c_str());
  }
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) out.body = raw.substr(header_end + 4);
  return out;
}

// Timings vary run to run; everything else in the document must not.
std::string StripSeconds(std::string json) {
  static const std::regex seconds("\"(nary_)?seconds\":[-+.eE0-9]+");
  return std::regex_replace(json, seconds, "\"$1seconds\":0");
}

class ServerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-server-e2e");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(*dir);
    MakeWorkspace(dir_->path(), "smoke");
    ServerOptions options;
    options.root = dir_->path().string();
    options.port = 0;  // ephemeral
    options.worker_threads = 2;
    server_ = std::make_unique<SpiderServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    loop_ = std::make_unique<ThreadPool>(1);
    served_ = loop_->Submit([this] { return server_->Run(); });
  }

  void TearDown() override {
    if (server_) {
      server_->RequestStop();
      EXPECT_TRUE(served_.get().ok());
    }
  }

  // Polls /jobs/<id> until it reaches a terminal state.
  ClientResponse AwaitJob(int64_t id) {
    ClientResponse status;
    for (int i = 0; i < 2000; ++i) {
      status = Fetch(server_->port(), "GET", "/jobs/" + std::to_string(id));
      if (status.body.find("\"state\":\"queued\"") == std::string::npos &&
          status.body.find("\"state\":\"running\"") == std::string::npos) {
        break;
      }
      std::this_thread::sleep_for(5ms);
    }
    return status;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<SpiderServer> server_;
  std::unique_ptr<ThreadPool> loop_;
  std::future<Status> served_;
};

TEST_F(ServerE2eTest, HealthAndDiscoveryEndpoints) {
  ClientResponse health = Fetch(server_->port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  ClientResponse workspaces = Fetch(server_->port(), "GET", "/workspaces");
  EXPECT_EQ(workspaces.status, 200);
  EXPECT_NE(workspaces.body.find("\"smoke\""), std::string::npos);

  // The approaches document is the same one `spider approaches --json`
  // prints — both sides call ApproachesToJson.
  ClientResponse approaches = Fetch(server_->port(), "GET", "/approaches");
  EXPECT_EQ(approaches.status, 200);
  EXPECT_EQ(approaches.body, ApproachesToJson());

  EXPECT_EQ(Fetch(server_->port(), "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(server_->port(), "DELETE", "/jobs/42").status, 404);
}

TEST_F(ServerE2eTest, ProfileJobMatchesDirectSessionRun) {
  ClientResponse submitted = Fetch(server_->port(), "POST", "/jobs",
                                   "{\"workspace\":\"smoke\",\"threads\":2}");
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  ClientResponse status = AwaitJob(1);
  EXPECT_NE(status.body.find("\"state\":\"finished\""), std::string::npos)
      << status.body;
  EXPECT_NE(status.body.find("\"percent\":100"), std::string::npos);
  ClientResponse report = Fetch(server_->port(), "GET", "/jobs/1/report");
  ASSERT_EQ(report.status, 200);

  // The daemon's document must match a direct in-process run of the same
  // options over the same workspace, serialized by the same function.
  auto catalog = OpenDiskCatalog((dir_->path() / "smoke").string());
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  auto options = ParseRunOptions({{"threads", "2"}});
  ASSERT_TRUE(options.ok());
  auto direct = session.Run(*options);
  ASSERT_TRUE(direct.ok());
  ReportJsonContext context;
  context.backend = "disk";
  context.tables = 2;
  context.attributes = 4;
  EXPECT_EQ(StripSeconds(report.body),
            StripSeconds(SessionReportToJson(*direct, context)));
}

TEST_F(ServerE2eTest, SigmaJobRunsThePartialVerifier) {
  // A bare σ resolves to spider-merge instead of failing on brute-force.
  ClientResponse submitted = Fetch(server_->port(), "POST", "/jobs",
                                   "{\"workspace\":\"smoke\",\"sigma\":0.9}");
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  ClientResponse status = AwaitJob(1);
  EXPECT_NE(status.body.find("\"state\":\"finished\""), std::string::npos)
      << status.body;
  ClientResponse report = Fetch(server_->port(), "GET", "/jobs/1/report");
  ASSERT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"approach\":\"spider-merge\""),
            std::string::npos)
      << report.body;
}

TEST_F(ServerE2eTest, ConcurrentJobsShareOneExtractorCache) {
  // First job populates the workspace's sorted-set cache.
  ASSERT_EQ(Fetch(server_->port(), "POST", "/jobs",
                  "{\"workspace\":\"smoke\"}")
                .status,
            202);
  AwaitJob(1);
  const std::filesystem::path set_dir = dir_->path() / ".sets-smoke";
  const int after_first = CountSetFiles(set_dir);
  EXPECT_GT(after_first, 0);

  // Two more jobs run concurrently on the 2-thread pool against the same
  // session; the shared extractor cache means no new set files appear.
  ASSERT_EQ(Fetch(server_->port(), "POST", "/jobs",
                  "{\"workspace\":\"smoke\"}")
                .status,
            202);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/jobs",
                  "{\"workspace\":\"smoke\"}")
                .status,
            202);
  ClientResponse second = AwaitJob(2);
  ClientResponse third = AwaitJob(3);
  EXPECT_NE(second.body.find("\"state\":\"finished\""), std::string::npos);
  EXPECT_NE(third.body.find("\"state\":\"finished\""), std::string::npos);
  EXPECT_EQ(CountSetFiles(set_dir), after_first);

  // All three agree on the discovered INDs; the later jobs answered from
  // the persisted profile (remembered verdicts, no re-extraction), so
  // their work counters record reuse instead of matching job 1's.
  ClientResponse first_report = Fetch(server_->port(), "GET", "/jobs/1/report");
  ClientResponse second_report =
      Fetch(server_->port(), "GET", "/jobs/2/report");
  ClientResponse third_report = Fetch(server_->port(), "GET", "/jobs/3/report");
  auto satisfied_of = [](const std::string& body) {
    const size_t begin = body.find("\"satisfied_inds\":");
    EXPECT_NE(begin, std::string::npos) << body;
    return body.substr(begin);
  };
  EXPECT_EQ(satisfied_of(first_report.body), satisfied_of(second_report.body));
  EXPECT_EQ(satisfied_of(first_report.body), satisfied_of(third_report.body));
  EXPECT_NE(first_report.body.find("\"profile_reused\":false"),
            std::string::npos)
      << first_report.body;
  for (const ClientResponse* warm : {&second_report, &third_report}) {
    EXPECT_NE(warm->body.find("\"profile_reused\":true"), std::string::npos)
        << warm->body;
    EXPECT_NE(warm->body.find("\"sets_extracted\":0"), std::string::npos)
        << warm->body;
  }
}

TEST_F(ServerE2eTest, InvalidOptionErrorsMatchTheCliParser) {
  ClientResponse bad = Fetch(server_->port(), "POST", "/jobs",
                             "{\"workspace\":\"smoke\",\"threds\":2}");
  EXPECT_EQ(bad.status, 400);
  auto expected = ParseRunOptions({{"threds", "2"}});
  EXPECT_NE(
      bad.body.find(JsonWriter::Escape(expected.status().message())),
      std::string::npos)
      << bad.body;

  EXPECT_EQ(Fetch(server_->port(), "POST", "/jobs", "not json").status, 400);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/jobs",
                  "{\"workspace\":\"missing\"}")
                .status,
            404);
  ClientResponse early = Fetch(server_->port(), "GET", "/jobs/1/report");
  EXPECT_EQ(early.status, 404);
}

}  // namespace
}  // namespace spider
