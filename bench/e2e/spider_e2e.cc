// spider_e2e — the end-to-end benchmark driver (bench/e2e/README.md).
//
//   spider_e2e --workload=NAME --phase=setup|measure|trace --dir=DIR
//              [--seed=N] [--seconds=S] [--scale=full|smoke]
//              [--spiderd=PATH] [--trace-out=FILE] [--e2e-seconds=S]
//              [--expect-satisfied=N]
//
// run.py runs the phases of one workload as separate child processes that
// share DIR:
//   setup    generates the inputs from the seed (timed several times; the
//            median is setup_s), computes the reference IND set with an
//            independent oracle, and primes what the workload needs primed;
//   measure  batch workloads: one untraced operation, as a fresh CLI process
//            pays it (run.py repeats the phase for --seconds); daemon_mixed:
//            the spiderd traffic for --seconds;
//   trace    replays the operation as explicit layer calls timed from
//            outside, probes the remaining layers, writes a Chrome
//            trace-event file and reports the per-layer metrics.
// Only public entry points of the libraries and the spiderd binary are
// used. Each phase prints one JSON object as its last stdout line and exits
// non-zero when any correctness gate failed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "bench/e2e/e2e_support.h"
#include "bench/e2e/spiderd_client.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/datagen/pdb_like.h"
#include "src/extsort/profile_store.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/registry.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace spider::e2e {
namespace {

/// Session, extraction and verification threads of the batch workloads —
/// the host has 4 cores and the benchmark never oversubscribes them.
constexpr int kThreads = 4;
/// Input generations timed per setup phase: at least the minimum, more
/// while they add up to less than kSetupSeconds (setup_s is their median).
constexpr int kMinSetupRepetitions = 3;
constexpr int kMaxSetupRepetitions = 15;
constexpr double kSetupSeconds = 2.0;

/// Trace tracks: the operation's replay, the layer probes that are not
/// part of it, and spiderd jobs (one track per connection).
constexpr int kReplayTrack = 2;
constexpr int kProbeTrack = 3;
constexpr int kServerTrack = 10;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kCold, kWarm, kDaemon };

/// The spiderd traffic: workspaces in the bench_incremental parent/child
/// shape. Child c of a workspace holds rows [c·stride, c·stride + rows) of
/// the parent; appends extend it inside its own reserved stride, so every
/// append leaves the IND set (child.f ⊆ parent.f for every family f)
/// unchanged.
struct DaemonSpec {
  int workspaces = 8;
  int children = 20;
  int families = 8;
  int64_t child_rows = 200;
  int64_t append_rows = 20;
  int max_appends_per_child = 16;
  int jobs = 2000;
  int connections = 4;
  int daemon_threads = 2;
  int max_sessions = 4;
  double append_share = 0.05;
  double poll_interval_s = 0.001;

  int64_t stride() const {
    return child_rows + append_rows * max_appends_per_child;
  }
};

struct Workload {
  std::string name;
  Kind kind = Kind::kCold;
  datagen::PdbLikeOptions data;  // batch workloads
  DaemonSpec daemon;             // daemon_mixed
  /// Satisfied INDs at seed 42 (full scale), -1 when not pinned.
  int64_t pinned_satisfied = -1;
};

std::vector<Workload> Workloads(bool smoke) {
  // The paper's 167 tables and its ~41.7k satisfied INDs, with 9 instead
  // of 16 columns per category table: a third of PaperScale(120)'s 3.38 M
  // candidates, so a run repeats the operation and stays under 1 GB.
  datagen::PdbLikeOptions paper = datagen::PdbLikeOptions::PaperScale(120);
  paper.extra_data_columns = 3;
  datagen::PdbLikeOptions rows;
  rows.entries = 30000;
  rows.category_tables = 8;
  rows.clean_entry_id_tables = 2;
  rows.include_atom_site = true;
  DaemonSpec daemon;
  if (smoke) {
    paper = datagen::PdbLikeOptions::PaperScale(20);
    paper.category_tables = 12;
    paper.clean_entry_id_tables = 4;
    paper.extra_data_columns = 2;
    rows.entries = 300;
    rows.category_tables = 4;
    daemon.workspaces = 3;
    daemon.children = 3;
    daemon.families = 2;
    daemon.child_rows = 40;
    daemon.append_rows = 5;
    daemon.max_appends_per_child = 4;
    daemon.jobs = 40;
    daemon.append_share = 0.2;
  }
  std::vector<Workload> workloads(4);
  workloads[0].name = "paper_cold";
  workloads[0].kind = Kind::kCold;
  workloads[0].data = paper;
  workloads[1].name = "paper_warm";
  workloads[1].kind = Kind::kWarm;
  workloads[1].data = paper;
  workloads[2].name = "rows_cold";
  workloads[2].kind = Kind::kCold;
  workloads[2].data = rows;
  workloads[3].name = "daemon_mixed";
  workloads[3].kind = Kind::kDaemon;
  workloads[3].daemon = daemon;
  if (!smoke) {
    workloads[0].pinned_satisfied = 41686;
    workloads[1].pinned_satisfied = 41686;
  }
  return workloads;
}

struct Args {
  std::string workload;
  std::string phase;
  std::string scale = "full";
  fs::path dir;
  fs::path spiderd;
  fs::path trace_out;
  uint64_t seed = 42;
  double seconds = 10;
  int64_t expect_satisfied = -1;
  double e2e_seconds = 0;
};

// ---------------------------------------------------------------------------
// Phase results
// ---------------------------------------------------------------------------

/// What one phase reports: metrics (name → value), informational facts,
/// and the operation/gate tally behind `attempted` and `failed`.
class PhaseResult {
 public:
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  void Info(const std::string& name, double value) {
    info_.emplace_back(name, value);
  }
  /// Counts one operation or correctness gate; a false `ok` is a failure.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }
  int64_t failed() const { return failed_; }

  std::string ToJson() const {
    JsonWriter json;
    json.BeginObject();
    json.Key("metrics");
    json.BeginObject();
    for (const auto& [name, value] : metrics_) json.KV(name, value);
    json.EndObject();
    json.Key("info");
    json.BeginObject();
    for (const auto& [name, value] : info_) json.KV(name, value);
    json.EndObject();
    json.KV("attempted", attempted_);
    json.KV("failed", failed_);
    json.Key("failures");
    json.BeginArray();
    for (const std::string& failure : failures_) json.String(failure);
    json.EndArray();
    json.EndObject();
    return json.str();
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

Status WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (!out) return Status::IOError("cannot write " + path.string());
  return Status::OK();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

int64_t CsvBytes(const fs::path& csv_dir) {
  return BytesUnder(csv_dir,
                    [](const fs::path& p) { return p.extension() == ".csv"; });
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Streams a workload's dataset into any sink (CSV dump, disk workspace or
/// a discarding sink for the datagen-only probe).
using DatasetWriter = std::function<Status(CatalogSink&)>;

/// A sink that discards everything: times the generator alone.
class NullSink final : public CatalogSink {
 public:
  Status BeginTable(const std::string&) override { return Status::OK(); }
  Status AddColumn(std::string, TypeId, bool) override { return Status::OK(); }
  Status AppendRow(std::vector<Value>) override { return Status::OK(); }
  Status FinishTable() override { return Status::OK(); }
  void DeclareForeignKey(ForeignKey) override {}
  Result<std::unique_ptr<Catalog>> Finish() override {
    return std::make_unique<Catalog>("null");
  }
};

Status WriteCsv(const DatasetWriter& write, const fs::path& csv_dir) {
  fs::create_directories(csv_dir);
  CsvCatalogSink sink(csv_dir);
  SPIDER_RETURN_NOT_OK(write(sink));
  return sink.Finish().status();
}

DatasetWriter PdbWriter(const Workload& workload, uint64_t seed) {
  datagen::PdbLikeOptions options = workload.data;
  options.seed = seed;
  return [options](CatalogSink& sink) {
    return datagen::WritePdbLike(options, sink);
  };
}

// A seed-dependent unique value per (workspace, family, parent row):
// splitmix64 is a bijection, so distinct inputs never collide.
std::string DaemonValue(uint64_t seed, int workspace, int family,
                        int64_t row) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
               ((static_cast<uint64_t>(workspace) << 48) |
                (static_cast<uint64_t>(family) << 40) |
                static_cast<uint64_t>(row));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return "f" + std::to_string(family) + "-" + Hex(z);
}

std::string FamilyName(int family) { return "f" + std::to_string(family); }
std::string ChildName(int child) { return "child" + std::to_string(child); }

Status WriteDaemonRows(const DaemonSpec& spec, uint64_t seed, int workspace,
                       const std::string& table, int64_t first, int64_t count,
                       CatalogSink& sink) {
  SPIDER_RETURN_NOT_OK(sink.BeginTable(table));
  for (int f = 0; f < spec.families; ++f) {
    SPIDER_RETURN_NOT_OK(sink.AddColumn(FamilyName(f), TypeId::kString));
  }
  for (int64_t row = first; row < first + count; ++row) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(spec.families));
    for (int f = 0; f < spec.families; ++f) {
      values.push_back(Value::String(DaemonValue(seed, workspace, f, row)));
    }
    SPIDER_RETURN_NOT_OK(sink.AppendRow(std::move(values)));
  }
  return sink.FinishTable();
}

DatasetWriter DaemonWorkspaceWriter(const DaemonSpec& spec, uint64_t seed,
                                    int workspace) {
  return [spec, seed, workspace](CatalogSink& sink) -> Status {
    SPIDER_RETURN_NOT_OK(WriteDaemonRows(spec, seed, workspace, "parent", 0,
                                         spec.children * spec.stride(), sink));
    for (int c = 0; c < spec.children; ++c) {
      SPIDER_RETURN_NOT_OK(WriteDaemonRows(spec, seed, workspace, ChildName(c),
                                           c * spec.stride(), spec.child_rows,
                                           sink));
    }
    return Status::OK();
  };
}

/// The IND set every daemon report must list: child_c.f ⊆ parent.f.
std::vector<Ind> DaemonKnownInds(const DaemonSpec& spec) {
  std::vector<Ind> inds;
  for (int c = 0; c < spec.children; ++c) {
    for (int f = 0; f < spec.families; ++f) {
      inds.push_back(Ind{{ChildName(c), FamilyName(f)}, {"parent", FamilyName(f)}});
    }
  }
  std::sort(inds.begin(), inds.end());
  return inds;
}

/// One planned daemon job. Appends name their child and its append ordinal.
struct PlannedJob {
  int workspace = 0;
  bool append = false;
  int child = 0;
  int ordinal = 0;
};

/// The job sequence is a pure function of the seed: Zipf(s=1) workspace
/// popularity over a seeded rank permutation, `append_share` appends.
std::vector<PlannedJob> PlanJobs(const DaemonSpec& spec, uint64_t seed) {
  Random rng(seed ^ 0x5eed0fda11ULL);
  std::vector<int> by_rank(static_cast<size_t>(spec.workspaces));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1],
              by_rank[static_cast<size_t>(
                  rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  std::vector<double> cumulative;
  double total = 0;
  for (int rank = 1; rank <= spec.workspaces; ++rank) {
    total += 1.0 / rank;
    cumulative.push_back(total);
  }
  std::vector<int> appends(
      static_cast<size_t>(spec.workspaces * spec.children), 0);
  std::vector<int> next_child(static_cast<size_t>(spec.workspaces), 0);
  std::vector<PlannedJob> plan;
  for (int j = 0; j < spec.jobs; ++j) {
    const double u = rng.NextDouble() * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    PlannedJob job;
    job.workspace = by_rank[std::min(rank, by_rank.size() - 1)];
    if (rng.NextDouble() < spec.append_share) {
      int& cursor = next_child[static_cast<size_t>(job.workspace)];
      job.child = cursor;
      cursor = (cursor + 1) % spec.children;
      int& count = appends[static_cast<size_t>(job.workspace * spec.children +
                                               job.child)];
      if (count < spec.max_appends_per_child) {
        job.append = true;
        job.ordinal = count++;
      }
    }
    plan.push_back(job);
  }
  return plan;
}

/// The workspace the Zipf permutation ranks most popular.
int TopWorkspace(const DaemonSpec& spec, uint64_t seed) {
  std::vector<int> hits(static_cast<size_t>(spec.workspaces), 0);
  for (const PlannedJob& job : PlanJobs(spec, seed)) {
    ++hits[static_cast<size_t>(job.workspace)];
  }
  return static_cast<int>(std::max_element(hits.begin(), hits.end()) -
                          hits.begin());
}

std::string WorkspaceName(int w) { return "ws" + std::to_string(w); }

fs::path DeltaDir(const fs::path& dir, const PlannedJob& job) {
  return dir / "csv" / "deltas" /
         (WorkspaceName(job.workspace) + "-" + ChildName(job.child) + "-" +
          std::to_string(job.ordinal));
}

Status WriteDaemonInputs(const DaemonSpec& spec, uint64_t seed,
                         const fs::path& dir) {
  for (int w = 0; w < spec.workspaces; ++w) {
    SPIDER_RETURN_NOT_OK(WriteCsv(DaemonWorkspaceWriter(spec, seed, w),
                                  dir / "csv" / WorkspaceName(w)));
  }
  for (const PlannedJob& job : PlanJobs(spec, seed)) {
    if (!job.append) continue;
    const int64_t first = job.child * spec.stride() + spec.child_rows +
                          job.ordinal * spec.append_rows;
    SPIDER_RETURN_NOT_OK(WriteCsv(
        [&](CatalogSink& sink) {
          return WriteDaemonRows(spec, seed, job.workspace,
                                 ChildName(job.child), first,
                                 spec.append_rows, sink);
        },
        DeltaDir(dir, job)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The batch operation
// ---------------------------------------------------------------------------

/// CSV dump → sealed disk workspace, as `spider import` runs it.
Result<std::unique_ptr<Catalog>> ImportDump(const fs::path& csv,
                                            const fs::path& ws) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<DiskCatalogWriter> writer,
                          DiskCatalogWriter::Create(ws, "dump"));
  return ImportCsvDirectory(csv, CsvOptions{}, *writer);
}

/// A fresh persisted session over a workspace, as `spider profile <ws>
/// --approach=spider-merge --threads=4` runs it (profile in place).
Result<SessionReport> ProfileWorkspace(const fs::path& ws) {
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          OpenDiskCatalog(ws));
  SessionOptions options;
  options.work_dir = ws.string();
  options.persist_profile = true;
  SpiderSession session(std::move(catalog), options);
  RunOptions run;
  run.approach = "spider-merge";
  run.threads = kThreads;
  return session.Run(run);
}

int64_t ExpectedCount(const Workload& workload, const Args& args) {
  if (args.expect_satisfied >= 0) return args.expect_satisfied;
  if (args.seed == 42 && args.scale == "full") return workload.pinned_satisfied;
  return -1;
}

/// Compares a satisfied set with the oracle's (and the pinned count).
void CheckInds(PhaseResult& result, const std::string& what,
               const std::vector<Ind>& satisfied, const std::string& expected,
               int64_t expected_count) {
  const std::string got = SerializeInds(satisfied);
  result.Check(got == expected, what + ": satisfied set differs from the oracle (" +
                                    std::to_string(satisfied.size()) + " INDs)");
  if (expected_count >= 0) {
    result.Check(static_cast<int64_t>(satisfied.size()) == expected_count,
                 what + ": " + std::to_string(satisfied.size()) +
                     " satisfied INDs, expected " +
                     std::to_string(expected_count));
  }
}

// ---------------------------------------------------------------------------
// Setup phase
// ---------------------------------------------------------------------------

Status Setup(const Workload& workload, const Args& args, PhaseResult& result) {
  const fs::path csv = args.dir / "csv";
  std::vector<double> times;
  double total = 0;
  while (times.size() < kMinSetupRepetitions ||
         (total < kSetupSeconds && times.size() < kMaxSetupRepetitions)) {
    fs::remove_all(csv);
    const double start = NowSeconds();
    if (workload.kind == Kind::kDaemon) {
      SPIDER_RETURN_NOT_OK(WriteDaemonInputs(workload.daemon, args.seed, args.dir));
    } else {
      SPIDER_RETURN_NOT_OK(WriteCsv(PdbWriter(workload, args.seed), csv));
    }
    times.push_back(NowSeconds() - start);
    total += times.back();
  }
  result.Metric("setup_s", Median(times));
  result.Info("setup_samples", static_cast<double>(times.size()));
  result.Info("csv_bytes", static_cast<double>(CsvBytes(csv)));

  if (workload.kind == Kind::kDaemon) {
    // The construction claim behind every daemon report check.
    const std::string known = SerializeInds(DaemonKnownInds(workload.daemon));
    for (int w = 0; w < workload.daemon.workspaces; ++w) {
      SPIDER_ASSIGN_OR_RETURN(std::vector<Ind> oracle,
                              OracleInds(csv / WorkspaceName(w)));
      result.Check(SerializeInds(oracle) == known,
                   WorkspaceName(w) + ": oracle disagrees with the known set");
    }
    return Status::OK();
  }

  SPIDER_ASSIGN_OR_RETURN(std::vector<Ind> oracle, OracleInds(csv));
  const std::string expected = SerializeInds(oracle);
  SPIDER_RETURN_NOT_OK(WriteFile(args.dir / "expected.tsv", expected));
  result.Info("expected_satisfied", static_cast<double>(oracle.size()));
  if (workload.kind == Kind::kWarm) {
    const fs::path primed = args.dir / "primed";
    fs::remove_all(primed);
    SPIDER_RETURN_NOT_OK(ImportDump(csv, primed).status());
    SPIDER_ASSIGN_OR_RETURN(SessionReport cold, ProfileWorkspace(primed));
    CheckInds(result, "priming cold profile", cold.run.satisfied, expected, -1);
    SPIDER_RETURN_NOT_OK(WriteFile(args.dir / "cold.tsv",
                                   SerializeInds(cold.run.satisfied)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Measure phase: batch workloads
// ---------------------------------------------------------------------------

/// One untraced batch operation in this fresh process, as the CLI pays it:
/// cold workloads import the dump into a new workspace and profile it, the
/// warm one profiles the primed workspace again. run.py repeats the phase
/// for --seconds and aggregates; the satisfied set is kept for the trace
/// phase's byte comparison.
Status MeasureBatch(const Workload& workload, const Args& args,
                    PhaseResult& result) {
  SPIDER_ASSIGN_OR_RETURN(const std::string expected,
                          ReadFile(args.dir / "expected.tsv"));
  const bool warm = workload.kind == Kind::kWarm;
  const fs::path ws = args.dir / (warm ? "primed" : "ws");
  if (!warm) fs::remove_all(ws);

  const double start = NowSeconds();
  double import_s = 0;
  if (!warm) {
    SPIDER_RETURN_NOT_OK(ImportDump(args.dir / "csv", ws).status());
    import_s = NowSeconds() - start;
  }
  SPIDER_ASSIGN_OR_RETURN(SessionReport report, ProfileWorkspace(ws));
  const double op_s = NowSeconds() - start;

  const std::string satisfied = SerializeInds(report.run.satisfied);
  result.Check(report.run.finished, "the profile run did not finish");
  CheckInds(result, workload.name, report.run.satisfied, expected,
            ExpectedCount(workload, args));
  if (warm) {
    SPIDER_ASSIGN_OR_RETURN(const std::string cold,
                            ReadFile(args.dir / "cold.tsv"));
    result.Check(satisfied == cold,
                 "warm satisfied set differs from the cold one");
    result.Check(report.candidates_revalidated == 0,
                 "warm run revalidated " +
                     std::to_string(report.candidates_revalidated) +
                     " candidates");
  }
  SPIDER_RETURN_NOT_OK(WriteFile(args.dir / "untraced.tsv", satisfied));
  result.Metric("op_s", op_s);
  result.Metric("disk_bytes_per_csv_byte",
                static_cast<double>(BytesUnder(ws)) /
                    static_cast<double>(CsvBytes(args.dir / "csv")));
  if (!warm) result.Info("import_s", import_s);
  result.Info("items_read", static_cast<double>(report.run.counters.tuples_read));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Daemon traffic
// ---------------------------------------------------------------------------

/// Client-side timeline of one job: POST sent → 202 → first poll that saw
/// it leave the queue → first poll that saw it terminal → report received.
struct JobRecord {
  PlannedJob job;
  int connection = 0;
  double submit_start = 0;
  double submit_end = 0;
  double started = 0;
  double terminal = 0;
  double report_start = 0;
  double report_end = 0;
  std::vector<double> poll_rtts;
  bool ok = false;
  std::string error;
  // From the report document of profile jobs.
  double session_seconds = 0;
  int64_t candidates = 0;
  int64_t verdicts_reused = 0;
  int64_t sets_extracted = 0;
};

std::string ProfileBody(const std::string& workspace, int threads) {
  JsonWriter json;
  json.BeginObject();
  json.KV("workspace", workspace);
  json.KV("approach", "spider-merge");
  json.KV("threads", threads);
  json.EndObject();
  return json.str();
}

std::string ImportBody(const std::string& workspace, const fs::path& source,
                       bool append) {
  JsonWriter json;
  json.BeginObject();
  json.KV("op", "import");
  json.KV("workspace", workspace);
  json.KV("source", fs::absolute(source).string());
  if (append) json.KV("append", true);
  json.EndObject();
  return json.str();
}

const JsonValue* Member(const JsonValue& value, std::string_view key) {
  return value.is_object() ? value.Find(key) : nullptr;
}

int64_t IntMember(const JsonValue& value, std::string_view key) {
  const JsonValue* member = Member(value, key);
  return member != nullptr && member->is_number()
             ? static_cast<int64_t>(member->number)
             : 0;
}

/// Submits one job, polls it to a terminal state every `poll_s` and fetches
/// its report. Fills the timeline; `report` receives the parsed document.
Status RunJob(HttpConnection& conn, const std::string& body, double poll_s,
              JobRecord* record, JsonValue* report) {
  record->submit_start = NowSeconds();
  SPIDER_ASSIGN_OR_RETURN(HttpReply submitted,
                          conn.Request("POST", "/jobs", body));
  record->submit_end = NowSeconds();
  if (submitted.status != 202) {
    return Status::IOError("POST /jobs -> " + std::to_string(submitted.status) +
                           " " + submitted.body);
  }
  SPIDER_ASSIGN_OR_RETURN(JsonValue accepted, ParseJson(submitted.body));
  const std::string path = "/jobs/" + std::to_string(IntMember(accepted, "id"));
  std::string state = "queued";
  for (bool first = true;; first = false) {
    if (!first) std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
    const double sent = NowSeconds();
    SPIDER_ASSIGN_OR_RETURN(HttpReply polled, conn.Request("GET", path));
    const double received = NowSeconds();
    record->poll_rtts.push_back(received - sent);
    if (polled.status != 200) {
      return Status::IOError("GET " + path + " -> " +
                             std::to_string(polled.status));
    }
    SPIDER_ASSIGN_OR_RETURN(JsonValue snapshot, ParseJson(polled.body));
    const JsonValue* state_value = Member(snapshot, "state");
    state = state_value != nullptr ? state_value->string : "";
    if (state != "queued" && record->started == 0) record->started = received;
    if (state == "finished" || state == "failed" || state == "cancelled") {
      record->terminal = received;
      break;
    }
  }
  record->report_start = NowSeconds();
  SPIDER_ASSIGN_OR_RETURN(HttpReply fetched,
                          conn.Request("GET", path + "/report"));
  record->report_end = NowSeconds();
  if (state != "finished" || fetched.status != 200) {
    return Status::IOError("job " + path + " ended " + state + " (report " +
                           std::to_string(fetched.status) + "): " +
                           fetched.body.substr(0, 200));
  }
  SPIDER_ASSIGN_OR_RETURN(*report, ParseJson(fetched.body));
  return Status::OK();
}

/// Checks a profile report against the known IND set and keeps its work
/// counters.
Status CheckProfileReport(const JsonValue& report, const std::string& expected,
                          JobRecord* record) {
  const JsonValue* inds = Member(report, "satisfied_inds");
  if (inds == nullptr || !inds->is_array()) {
    return Status::InvalidArgument("report has no satisfied_inds");
  }
  std::string got;
  for (const JsonValue& ind : inds->array) {
    const JsonValue* dep = Member(ind, "dependent");
    const JsonValue* ref = Member(ind, "referenced");
    if (dep == nullptr || ref == nullptr) {
      return Status::InvalidArgument("malformed satisfied_inds entry");
    }
    got += dep->string + "\t" + ref->string + "\n";
  }
  const JsonValue* finished = Member(report, "finished");
  if (finished == nullptr || !finished->boolean) {
    return Status::InvalidArgument("report is not finished");
  }
  if (got != expected) {
    return Status::InvalidArgument(
        "report lists " + std::to_string(inds->array.size()) +
        " INDs, not the workspace's known set");
  }
  const JsonValue* seconds = Member(report, "seconds");
  record->session_seconds = seconds != nullptr ? seconds->number : 0;
  record->candidates = IntMember(report, "candidates");
  record->verdicts_reused = IntMember(report, "verdicts_reused");
  record->sets_extracted = IntMember(report, "sets_extracted");
  return Status::OK();
}

struct DaemonRun {
  std::vector<JobRecord> records;
  double window_s = 0;
  double rss_mb = 0;
  int64_t csv_bytes = 0;
  int64_t stored_bytes = 0;
};

/// Starts spiderd over a fresh root, imports and cold-profiles every
/// workspace (outside the window), then drives the planned jobs closed-loop
/// from `connections` clients until the plan or --seconds runs out.
Status DriveDaemon(const Workload& workload, const Args& args,
                   PhaseResult& result, DaemonRun* run) {
  const DaemonSpec& spec = workload.daemon;
  const fs::path root = args.dir / "root";
  fs::remove_all(root);
  fs::create_directories(root);
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<SpiderdProcess> daemon,
      SpiderdProcess::Start(args.spiderd, root, spec.daemon_threads,
                            spec.max_sessions, args.dir / "spiderd.log"));
  const std::string known = SerializeInds(DaemonKnownInds(spec));

  {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<HttpConnection> conn,
                            HttpConnection::Connect(daemon->port()));
    for (int w = 0; w < spec.workspaces; ++w) {
      JobRecord record;
      JsonValue report;
      SPIDER_RETURN_NOT_OK(RunJob(
          *conn, ImportBody(WorkspaceName(w), args.dir / "csv" / WorkspaceName(w), false),
          spec.poll_interval_s, &record, &report));
      SPIDER_RETURN_NOT_OK(RunJob(*conn, ProfileBody(WorkspaceName(w), 1),
                                  spec.poll_interval_s, &record, &report));
      SPIDER_RETURN_NOT_OK(CheckProfileReport(report, known, &record));
    }
  }
  run->csv_bytes = CsvBytes(args.dir / "csv") -
                   CsvBytes(args.dir / "csv" / "deltas");
  ::sync();

  const std::vector<PlannedJob> plan = PlanJobs(spec, args.seed);
  std::vector<std::shared_mutex> locks(static_cast<size_t>(spec.workspaces));
  std::atomic<size_t> next{0};
  std::mutex records_mutex;
  const double start = NowSeconds();
  const double deadline = start + args.seconds;
  auto client = [&](int connection) {
    Result<std::unique_ptr<HttpConnection>> conn =
        HttpConnection::Connect(daemon->port());
    while (true) {
      const size_t index = next.fetch_add(1);
      if (index >= plan.size() || NowSeconds() >= deadline) break;
      JobRecord record;
      record.job = plan[index];
      record.connection = connection;
      const std::string workspace = WorkspaceName(record.job.workspace);
      std::shared_mutex& lock = locks[static_cast<size_t>(record.job.workspace)];
      Status status;
      JsonValue report;
      if (!conn.ok()) {
        status = conn.status();
      } else if (record.job.append) {
        // Appends never overlap other jobs on their workspace.
        std::unique_lock<std::shared_mutex> exclusive(lock);
        status = RunJob(**conn, ImportBody(workspace, DeltaDir(args.dir, record.job), true),
                        spec.poll_interval_s, &record, &report);
        if (status.ok()) {
          const JsonValue* op = Member(report, "op");
          if (op == nullptr || op->string != "append") {
            status = Status::InvalidArgument("append job reported no append");
          }
        }
      } else {
        std::shared_lock<std::shared_mutex> shared(lock);
        status = RunJob(**conn, ProfileBody(workspace, 1), spec.poll_interval_s,
                        &record, &report);
        if (status.ok()) status = CheckProfileReport(report, known, &record);
      }
      record.ok = status.ok();
      if (!status.ok()) record.error = workspace + ": " + status.ToString();
      std::lock_guard<std::mutex> guard(records_mutex);
      run->records.push_back(std::move(record));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.connections; ++c) clients.emplace_back(client, c);
  for (std::thread& thread : clients) thread.join();
  run->window_s = NowSeconds() - start;

  for (const JobRecord& record : run->records) {
    result.Check(record.ok, record.error);
    if (record.ok && record.job.append) {
      run->csv_bytes += CsvBytes(DeltaDir(args.dir, record.job));
    }
  }
  SPIDER_ASSIGN_OR_RETURN(run->rss_mb, daemon->Stop());
  run->stored_bytes = BytesUnder(root);
  return Status::OK();
}

std::vector<double> Collect(const std::vector<JobRecord>& records,
                            bool appends,
                            const std::function<double(const JobRecord&)>& f) {
  std::vector<double> values;
  for (const JobRecord& record : records) {
    if (record.ok && record.job.append == appends) values.push_back(f(record));
  }
  return values;
}

double Latency(const JobRecord& r) { return r.report_end - r.submit_start; }

Status MeasureDaemon(const Workload& workload, const Args& args,
                     PhaseResult& result) {
  DaemonRun run;
  SPIDER_RETURN_NOT_OK(DriveDaemon(workload, args, result, &run));
  const std::vector<double> profile = Collect(run.records, false, Latency);
  const std::vector<double> append = Collect(run.records, true, Latency);
  if (profile.empty()) return Status::OK();
  result.Metric("latency_p50_ms", Median(profile) * 1e3);
  result.Metric("latency_p90_ms", Percentile(profile, 90) * 1e3);
  result.Metric("ops_per_s",
                static_cast<double>(run.records.size()) / run.window_s);
  result.Metric("peak_rss_mb", run.rss_mb);
  result.Metric("disk_bytes_per_csv_byte",
                static_cast<double>(run.stored_bytes) /
                    static_cast<double>(run.csv_bytes));
  result.Info("samples", static_cast<double>(profile.size()));
  result.Info("append_samples", static_cast<double>(append.size()));
  result.Info("latency_p99_ms", Percentile(profile, 99) * 1e3);
  if (!append.empty()) result.Info("append_p50_ms", Median(append) * 1e3);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Trace phase: the operation replayed as layer calls
// ---------------------------------------------------------------------------

/// Adds the seconds of every span recorded on `track` since `first`.
double TrackSeconds(const Tracer& tracer, int track, size_t first) {
  double total = 0;
  for (size_t i = first; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    if (span.track == track) total += span.end_s - span.start_s;
  }
  return total;
}

/// Every attribute the candidates name, in first-appearance order.
std::vector<AttributeRef> CandidateAttributes(
    const std::vector<IndCandidate>& candidates) {
  std::set<AttributeRef> seen;
  std::vector<AttributeRef> attributes;
  for (const IndCandidate& candidate : candidates) {
    if (seen.insert(candidate.dependent).second) {
      attributes.push_back(candidate.dependent);
    }
    if (seen.insert(candidate.referenced).second) {
      attributes.push_back(candidate.referenced);
    }
  }
  return attributes;
}

/// Fingerprints of every generated attribute, as the session keys verdicts.
std::map<AttributeRef, uint64_t> Fingerprints(const CandidateSet& candidates) {
  std::map<AttributeRef, uint64_t> fingerprints;
  for (const auto& [attr, stats] : candidates.stats) {
    fingerprints.emplace(attr, ProfileStore::StatsFingerprint(stats));
  }
  return fingerprints;
}

/// The remembered verdict for `candidate` when both sides' fingerprints
/// still match — the session's reuse rule, in its order: both fingerprints
/// first, then the profile lookup.
std::optional<ProfileVerdict> Reusable(
    const ProfileStore& store,
    const std::map<AttributeRef, uint64_t>& fingerprints,
    const IndCandidate& candidate) {
  const uint64_t dependent = fingerprints.at(candidate.dependent);
  const uint64_t referenced = fingerprints.at(candidate.referenced);
  std::optional<ProfileVerdict> verdict =
      store.FindVerdict(candidate.dependent, candidate.referenced);
  if (!verdict.has_value() || verdict->dependent_fingerprint != dependent ||
      verdict->referenced_fingerprint != referenced) {
    return std::nullopt;
  }
  return verdict;
}

/// The warm pipeline as explicit calls — what a fresh session over a
/// sealed profile does: open → profile load → generate → verdict lookup.
struct WarmReplay {
  double composed_s = 0;
  std::string inds;
};

Status ReplayWarm(const fs::path& ws, int track, Tracer& tracer,
                  PhaseResult& result, WarmReplay* out) {
  const size_t first = tracer.spans().size();
  std::unique_ptr<Catalog> catalog;
  SPIDER_RETURN_NOT_OK(tracer.Time("storage.open", track, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(catalog, OpenDiskCatalog(ws));
    return Status::OK();
  }).status());
  std::unique_ptr<ValueSetExtractor> extractor;
  SPIDER_ASSIGN_OR_RETURN(
      const double load_s,
      tracer.Time("extsort.profile_store.load", track, [&] {
        ValueSetExtractorOptions options;
        options.persist_profile = true;
        extractor = std::make_unique<ValueSetExtractor>(ws, options);
        return Status::OK();
      }));
  CandidateSet candidates;
  SPIDER_RETURN_NOT_OK(
      tracer.Time("ind.candidate_generator.generate", track, [&]() -> Status {
        SPIDER_ASSIGN_OR_RETURN(candidates, CandidateGenerator().Generate(*catalog));
        return Status::OK();
      }).status());
  std::vector<Ind> satisfied;
  int64_t reused = 0;
  SPIDER_ASSIGN_OR_RETURN(
      const double lookup_s,
      tracer.Time("extsort.profile_store.lookup", track, [&] {
        const std::map<AttributeRef, uint64_t> fingerprints =
            Fingerprints(candidates);
        for (const IndCandidate& candidate : candidates.candidates) {
          const std::optional<ProfileVerdict> verdict =
              Reusable(*extractor->profile(), fingerprints, candidate);
          if (!verdict.has_value()) continue;
          ++reused;
          if (verdict->satisfied) {
            satisfied.push_back(Ind{candidate.dependent, candidate.referenced});
          }
        }
        satisfied = SortedInds(std::move(satisfied));
        return Status::OK();
      }));
  const int64_t verdicts = extractor->profile()->verdict_count();
  SPIDER_RETURN_NOT_OK(tracer.Time("ind.session.release", track, [&] {
    extractor.reset();
    catalog.reset();
    return Status::OK();
  }).status());
  out->composed_s = TrackSeconds(tracer, track, first);
  out->inds = SerializeInds(satisfied);
  result.Check(reused == static_cast<int64_t>(candidates.candidates.size()),
               "warm replay reused " + std::to_string(reused) + " of " +
                   std::to_string(candidates.candidates.size()) + " verdicts");
  result.Metric("extsort.profile_store.load_s", load_s);
  result.Metric("extsort.profile_store.lookup_s", lookup_s);
  result.Metric("extsort.profile_store.verdicts", static_cast<double>(verdicts));
  return Status::OK();
}

/// The cold pipeline as explicit calls — import → open → profile load →
/// generate → extract → parallel verify → record verdicts → save — then
/// probes, on kProbeTrack, of the layers it crosses inside single calls.
struct ColdReplay {
  double composed_s = 0;
  std::string serial_inds;
  std::string parallel_inds;
  fs::path workspace;  // sealed by the replay
  fs::path generated;  // written by the disk-store probe (same data)
};

Status ReplayColdAndProbe(const fs::path& csv, const DatasetWriter& dataset,
                          const fs::path& work, int track, Tracer& tracer,
                          PhaseResult& result, ColdReplay* out) {
  const int64_t csv_bytes = CsvBytes(csv);
  out->workspace = work / "ws";
  out->generated = work / "gen";
  const size_t first = tracer.spans().size();

  SPIDER_RETURN_NOT_OK(tracer.Time("storage.import", track, [&] {
    return ImportDump(csv, out->workspace).status();
  }).status());
  std::unique_ptr<Catalog> catalog;
  SPIDER_RETURN_NOT_OK(tracer.Time("storage.open", track, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(catalog, OpenDiskCatalog(out->workspace));
    return Status::OK();
  }).status());
  std::unique_ptr<ValueSetExtractor> extractor;
  SPIDER_RETURN_NOT_OK(tracer.Time("extsort.profile_store.load", track, [&] {
    ValueSetExtractorOptions options;
    options.persist_profile = true;
    extractor = std::make_unique<ValueSetExtractor>(out->workspace, options);
    return Status::OK();
  }).status());
  CandidateSet candidates;
  SPIDER_ASSIGN_OR_RETURN(
      const double generate_s,
      tracer.Time("ind.candidate_generator.generate", track, [&]() -> Status {
        SPIDER_ASSIGN_OR_RETURN(candidates, CandidateGenerator().Generate(*catalog));
        return Status::OK();
      }));
  // The session consults the profile for every candidate even when it is
  // empty, and hands the misses on as a copy.
  const std::map<AttributeRef, uint64_t> fingerprints = Fingerprints(candidates);
  std::vector<IndCandidate> to_verify;
  SPIDER_RETURN_NOT_OK(tracer.Time("extsort.profile_store.lookup", track, [&] {
    for (const IndCandidate& candidate : candidates.candidates) {
      if (!Reusable(*extractor->profile(), fingerprints, candidate)) {
        to_verify.push_back(candidate);
      }
    }
    return Status::OK();
  }).status());
  ThreadPool pool(kThreads);
  std::vector<SortedSetInfo> sets;
  SPIDER_ASSIGN_OR_RETURN(
      const double extract_s,
      tracer.Time("extsort.value_set_extractor.extract_all", track,
                  [&]() -> Status {
                    SPIDER_ASSIGN_OR_RETURN(
                        sets, extractor->ExtractAll(
                                  *catalog, CandidateAttributes(to_verify), &pool));
                    return Status::OK();
                  }));

  // The session's dispatch: components of the attribute graph, split until
  // every worker has a partition, one spider-merge instance per partition.
  AlgorithmConfig config;
  config.extractor = extractor.get();
  std::vector<std::vector<IndCandidate>> partitions;
  std::vector<Ind> parallel;
  SPIDER_ASSIGN_OR_RETURN(
      const double parallel_s,
      tracer.Time("ind.session.verify_parallel", track, [&]() -> Status {
        partitions = PartitionCandidatesByComponent(to_verify);
        if (partitions.size() < static_cast<size_t>(kThreads)) {
          partitions = SplitPartitionsForParallelism(
              std::move(partitions), static_cast<size_t>(kThreads));
        }
        std::vector<std::future<Result<IndRunResult>>> futures;
        for (const std::vector<IndCandidate>& partition : partitions) {
          futures.push_back(pool.Submit([&]() -> Result<IndRunResult> {
            SPIDER_ASSIGN_OR_RETURN(
                std::unique_ptr<IndAlgorithm> algorithm,
                AlgorithmRegistry::Global().Create("spider-merge", config));
            return algorithm->Run(*catalog, partition);
          }));
        }
        // Every partition finishes before any result is looked at: the
        // tasks reference locals of this frame.
        std::vector<Result<IndRunResult>> partials;
        for (auto& future : futures) partials.push_back(future.get());
        for (Result<IndRunResult>& partial : partials) {
          SPIDER_RETURN_NOT_OK(partial.status());
          parallel.insert(parallel.end(), partial->satisfied.begin(),
                          partial->satisfied.end());
        }
        parallel = SortedInds(std::move(parallel));
        return Status::OK();
      }));
  out->parallel_inds = SerializeInds(parallel);

  SPIDER_ASSIGN_OR_RETURN(
      const double record_s,
      tracer.Time("extsort.profile_store.record", track, [&] {
        const std::set<Ind> satisfied(parallel.begin(), parallel.end());
        for (const IndCandidate& candidate : to_verify) {
          ProfileVerdict verdict;
          verdict.satisfied =
              satisfied.count(Ind{candidate.dependent, candidate.referenced}) > 0;
          verdict.dependent_fingerprint = fingerprints.at(candidate.dependent);
          verdict.referenced_fingerprint = fingerprints.at(candidate.referenced);
          extractor->profile()->PutVerdict(candidate.dependent,
                                           candidate.referenced, verdict);
        }
        return Status::OK();
      }));
  SPIDER_ASSIGN_OR_RETURN(
      const double save_s,
      tracer.Time("extsort.profile_store.save", track,
                  [&] { return extractor->SaveProfile(); }));
  const double pipeline_s = TrackSeconds(tracer, track, first);

  // --- probes ---------------------------------------------------------------
  SPIDER_ASSIGN_OR_RETURN(
      const double parse_s,
      tracer.Time("storage.csv.parse", kProbeTrack, [&]() -> Status {
        std::vector<fs::path> files;
        for (const auto& entry : fs::directory_iterator(csv)) {
          if (entry.path().extension() == ".csv") files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        std::vector<std::string> fields;
        for (const fs::path& file : files) {
          std::ifstream in(file, std::ios::binary);
          CsvRecordReader reader(in);
          for (bool more = true; more;) {
            SPIDER_ASSIGN_OR_RETURN(more, reader.Next(&fields));
          }
        }
        return Status::OK();
      }));
  // The disk writer's own time: generator plus writer, minus the generator
  // streaming into a discarding sink.
  SPIDER_ASSIGN_OR_RETURN(const double datagen_s,
                          tracer.Time("datagen.generate", kProbeTrack, [&] {
                            NullSink sink;
                            return dataset(sink);
                          }));
  SPIDER_ASSIGN_OR_RETURN(
      const double write_total_s,
      tracer.Time("storage.disk_store.write", kProbeTrack, [&]() -> Status {
        SPIDER_ASSIGN_OR_RETURN(
            std::unique_ptr<DiskCatalogWriter> writer,
            DiskCatalogWriter::Create(out->generated, "dump"));
        SPIDER_RETURN_NOT_OK(dataset(*writer));
        return writer->Finish().status();
      }));

  std::vector<const Column*> columns;
  for (const AttributeRef& attr : catalog->AllAttributes()) {
    SPIDER_ASSIGN_OR_RETURN(const Column* column,
                            catalog->ResolveAttribute(attr));
    columns.push_back(column);
  }
  SPIDER_ASSIGN_OR_RETURN(
      const double scan_s,
      tracer.Time("storage.disk_store.scan", kProbeTrack, [&]() -> Status {
        for (const Column* column : columns) {
          SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                                  column->OpenCursor());
          std::string_view value;
          while (cursor->Next(&value) != CursorStep::kEnd) {
          }
          SPIDER_RETURN_NOT_OK(cursor->status());
        }
        return Status::OK();
      }));

  // The external sort of the column with the most stored bytes, with the
  // session's default budget: it spills exactly when the session's would.
  const Column* largest = *std::max_element(
      columns.begin(), columns.end(), [](const Column* a, const Column* b) {
        return a->ApproximateByteSize() < b->ApproximateByteSize();
      });
  const fs::path sort_dir = work / "sort";
  fs::create_directories(sort_dir);
  int spill_runs = 0;
  int64_t sort_input_bytes = 0;
  SPIDER_ASSIGN_OR_RETURN(
      const double sort_s,
      tracer.Time("extsort.external_sorter.sort", kProbeTrack, [&]() -> Status {
        ExternalSorterOptions options;
        options.memory_budget_bytes = SessionOptions().sort_memory_budget_bytes;
        options.spill_dir = sort_dir;
        options.run_prefix = "probe";
        ExternalSorter sorter(options);
        SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ValueCursor> cursor,
                                largest->OpenCursor());
        std::string_view value;
        for (CursorStep step = cursor->Next(&value); step != CursorStep::kEnd;
             step = cursor->Next(&value)) {
          if (step == CursorStep::kNull) continue;
          sort_input_bytes += static_cast<int64_t>(value.size());
          SPIDER_RETURN_NOT_OK(sorter.Add(std::string(value)));
        }
        SPIDER_RETURN_NOT_OK(cursor->status());
        spill_runs = sorter.spill_count();
        return sorter.WriteSortedSet(sort_dir / "probe.set").status();
      }));

  int64_t set_bytes = 0;
  for (const SortedSetInfo& info : sets) {
    set_bytes += static_cast<int64_t>(fs::file_size(info.path));
  }
  SPIDER_ASSIGN_OR_RETURN(
      const double decode_s,
      tracer.Time("extsort.sorted_set_file.decode", kProbeTrack, [&]() -> Status {
        for (const SortedSetInfo& info : sets) {
          SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<SortedSetReader> reader,
                                  SortedSetReader::Open(info.path));
          while (reader->HasNext()) reader->Skip();
          SPIDER_RETURN_NOT_OK(reader->status());
        }
        return Status::OK();
      }));

  IndRunResult serial;
  SPIDER_ASSIGN_OR_RETURN(
      const double serial_s,
      tracer.Time("ind.spider_merge.run", kProbeTrack, [&]() -> Status {
        SPIDER_ASSIGN_OR_RETURN(
            std::unique_ptr<IndAlgorithm> algorithm,
            AlgorithmRegistry::Global().Create("spider-merge", config));
        SPIDER_ASSIGN_OR_RETURN(serial,
                                algorithm->Run(*catalog, candidates.candidates));
        return Status::OK();
      }));
  out->serial_inds = SerializeInds(SortedInds(serial.satisfied));

  const double mb = 1e6;
  const double csv_size = static_cast<double>(csv_bytes);
  const double col_bytes = static_cast<double>(BytesUnder(
      out->workspace, [](const fs::path& p) { return p.extension() == ".col"; }));
  result.Metric("storage.csv.parse_s", parse_s);
  result.Metric("storage.csv.parse_mb_per_s", csv_size / mb / parse_s);
  result.Metric("storage.disk_store.write_s",
                std::max(write_total_s - datagen_s, 0.0));
  result.Metric("storage.disk_store.scan_mb_per_s", col_bytes / mb / scan_s);
  result.Metric("storage.col_bytes_per_csv_byte", col_bytes / csv_size);
  result.Metric("ind.candidate_generator.s", generate_s);
  result.Metric("ind.candidate_generator.raw_pairs",
                static_cast<double>(candidates.raw_pair_count));
  result.Metric("ind.candidate_generator.candidates",
                static_cast<double>(candidates.candidates.size()));
  result.Metric("ind.candidate_generator.pruned_ratio",
                candidates.raw_pair_count > 0
                    ? static_cast<double>(candidates.total_pruned()) /
                          static_cast<double>(candidates.raw_pair_count)
                    : 0.0);
  result.Metric("extsort.value_set_extractor.s", extract_s);
  result.Metric("extsort.value_set_extractor.sets",
                static_cast<double>(sets.size()));
  result.Metric("extsort.external_sorter.spill_runs", spill_runs);
  result.Metric("extsort.external_sorter.mb_per_s",
                static_cast<double>(sort_input_bytes) / mb / sort_s);
  result.Metric("extsort.sorted_set_file.decode_mb_per_s",
                static_cast<double>(set_bytes) / mb / decode_s);
  result.Metric("extsort.set_bytes_per_csv_byte",
                static_cast<double>(set_bytes) / csv_size);
  result.Metric("ind.spider_merge.s", serial_s);
  result.Metric("ind.spider_merge.tuples_read",
                static_cast<double>(serial.counters.tuples_read));
  result.Metric("ind.spider_merge.comparisons",
                static_cast<double>(serial.counters.comparisons));
  result.Metric("ind.spider_merge.blocks_skipped",
                static_cast<double>(serial.counters.blocks_skipped));
  result.Metric("ind.spider_merge.files_opened",
                static_cast<double>(serial.counters.files_opened));
  result.Metric("ind.spider_merge.peak_open_files",
                static_cast<double>(serial.counters.peak_open_files));
  result.Metric("ind.spider_merge.satisfied_per_tested",
                serial.counters.candidates_tested > 0
                    ? static_cast<double>(serial.satisfied.size()) /
                          static_cast<double>(serial.counters.candidates_tested)
                    : 0.0);
  result.Metric("ind.session.partitions", static_cast<double>(partitions.size()));
  result.Metric("ind.session.parallel_verify_s", parallel_s);
  result.Metric("ind.session.parallel_speedup", serial_s / parallel_s);
  result.Metric("extsort.profile_store.record_s", record_s);
  result.Metric("extsort.profile_store.save_s", save_s);
  result.Metric("extsort.profile_store.manifest_bytes_per_csv_byte",
                static_cast<double>(
                    fs::file_size(out->workspace / kProfileManifestName)) /
                    csv_size);
  result.Info("sort_input_bytes", static_cast<double>(sort_input_bytes));

  // Last, after the probes that still needed them: what the session's
  // destruction frees — the extractor with its profile, and the catalog.
  SPIDER_ASSIGN_OR_RETURN(const double release_s,
                          tracer.Time("ind.session.release", track, [&] {
                            extractor.reset();
                            catalog.reset();
                            return Status::OK();
                          }));
  out->composed_s = pipeline_s + release_s;
  return Status::OK();
}

/// What the layer replay found, for the gates and the attribution.
struct Ladder {
  double composed_s = 0;  // Σ spans of the replayed operation
  std::string serial_inds;
  std::string parallel_inds;
  std::string warm_inds;
  fs::path generated;
};

/// Replays the workload's operation on kReplayTrack — the warm pipeline on
/// `primed` when given, the cold one otherwise — first, in a process that
/// has done nothing else yet, then covers every other layer as probes.
Status RunLadder(const fs::path& csv, const DatasetWriter& dataset,
                 const fs::path& work, const fs::path& primed, Tracer& tracer,
                 PhaseResult& result, Ladder* ladder) {
  fs::remove_all(work);
  fs::create_directories(work);
  const bool warm_op = !primed.empty();
  WarmReplay warm;
  if (warm_op) {
    SPIDER_RETURN_NOT_OK(ReplayWarm(primed, kReplayTrack, tracer, result, &warm));
    ladder->composed_s = warm.composed_s;
  }
  ColdReplay cold;
  SPIDER_RETURN_NOT_OK(ReplayColdAndProbe(csv, dataset, work,
                                          warm_op ? kProbeTrack : kReplayTrack,
                                          tracer, result, &cold));
  if (!warm_op) {
    ladder->composed_s = cold.composed_s;
    SPIDER_RETURN_NOT_OK(
        ReplayWarm(cold.workspace, kProbeTrack, tracer, result, &warm));
  }
  ladder->serial_inds = std::move(cold.serial_inds);
  ladder->parallel_inds = std::move(cold.parallel_inds);
  ladder->warm_inds = std::move(warm.inds);
  ladder->generated = cold.generated;
  return Status::OK();
}

/// Server-layer metrics from client-side job timelines.
void ServerMetrics(const std::vector<JobRecord>& records, Tracer& tracer,
                   PhaseResult& result) {
  std::vector<double> polls;
  std::vector<double> queue;
  std::vector<double> running;
  int64_t candidates = 0;
  int64_t reused = 0;
  int64_t extracted = 0;
  int64_t profiles = 0;
  for (const JobRecord& r : records) {
    if (!r.ok) continue;
    const int track = kServerTrack + r.connection;
    tracer.Add("server.http.submit", track, r.submit_start, r.submit_end);
    tracer.Add("server.job_manager.queued", track, r.submit_end, r.started);
    tracer.Add("server.job_manager.running", track, r.started, r.terminal);
    tracer.Add("server.http.report", track, r.report_start, r.report_end);
    polls.insert(polls.end(), r.poll_rtts.begin(), r.poll_rtts.end());
    if (r.job.append) continue;
    queue.push_back(r.started - r.submit_end);
    running.push_back(r.terminal - r.started);
    candidates += r.candidates;
    reused += r.verdicts_reused;
    extracted += r.sets_extracted;
    ++profiles;
  }
  result.Metric("server.http.poll_rtt_p50_ms", Median(polls) * 1e3);
  result.Metric("server.job_manager.queue_wait_p50_ms", Median(queue) * 1e3);
  result.Metric("server.job_manager.queue_wait_p99_ms",
                Percentile(queue, 99) * 1e3);
  result.Metric("server.job_manager.run_p50_ms", Median(running) * 1e3);
  result.Metric("server.job_manager.run_p99_ms", Percentile(running, 99) * 1e3);
  result.Metric("server.verdict_reuse_ratio",
                candidates > 0 ? static_cast<double>(reused) /
                                     static_cast<double>(candidates)
                               : 0.0);
  result.Metric("server.sets_extracted_per_job",
                profiles > 0 ? static_cast<double>(extracted) /
                                   static_cast<double>(profiles)
                             : 0.0);
}

/// The batch workloads' server layer: spiderd profiles the workload's data
/// twice (cold, then warm) at the batch thread count.
Status ServerProbe(const Args& args, const fs::path& workspace,
                   const std::string& expected, Tracer& tracer,
                   PhaseResult& result) {
  const fs::path root = args.dir / "trace" / "daemon";
  fs::remove_all(root);
  fs::create_directories(root);
  fs::rename(workspace, root / "dump");
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<SpiderdProcess> daemon,
      SpiderdProcess::Start(args.spiderd, root, 1, 4,
                            args.dir / "spiderd-probe.log"));
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<HttpConnection> conn,
                          HttpConnection::Connect(daemon->port()));
  std::vector<JobRecord> records(2);
  for (JobRecord& record : records) {
    JsonValue report;
    Status status = RunJob(*conn, ProfileBody("dump", kThreads), 0.001,
                           &record, &report);
    if (status.ok()) status = CheckProfileReport(report, expected, &record);
    record.ok = status.ok();
    result.Check(record.ok, "spiderd probe: " + status.ToString());
  }
  SPIDER_RETURN_NOT_OK(daemon->Stop().status());
  ServerMetrics(records, tracer, result);
  return Status::OK();
}

void AttributionMetrics(double e2e_s, double composed_s, const Tracer& tracer,
                        double traced_wall_s, PhaseResult& result) {
  result.Metric("trace.unattributed_ratio",
                std::abs(e2e_s - composed_s) / e2e_s);
  result.Metric("trace.overhead_ratio",
                tracer.bookkeeping_seconds() / traced_wall_s);
  result.Info("e2e_untraced_s", e2e_s);
  result.Info("composed_s", composed_s);
}

/// The batch trace: the untraced operation ran in its own process (its
/// seconds arrive as --e2e-seconds, its satisfied set in untraced.tsv).
Status TraceBatch(const Workload& workload, const Args& args,
                  PhaseResult& result) {
  SPIDER_ASSIGN_OR_RETURN(const std::string expected,
                          ReadFile(args.dir / "expected.tsv"));
  SPIDER_ASSIGN_OR_RETURN(const std::string untraced,
                          ReadFile(args.dir / "untraced.tsv"));
  if (args.e2e_seconds <= 0) {
    return Status::InvalidArgument("--e2e-seconds is required for a trace");
  }
  Tracer tracer;
  tracer.NameTrack(kReplayTrack, "operation replay");
  tracer.NameTrack(kProbeTrack, "layer probes");
  tracer.NameTrack(kServerTrack, "spiderd jobs");
  const double traced_start = NowSeconds();
  Ladder ladder;
  SPIDER_RETURN_NOT_OK(RunLadder(
      args.dir / "csv", PdbWriter(workload, args.seed), args.dir / "trace",
      workload.kind == Kind::kWarm ? args.dir / "primed" : fs::path(), tracer,
      result, &ladder));
  result.Check(ladder.serial_inds == untraced,
               "traced serial merge differs from the untraced session");
  result.Check(ladder.parallel_inds == untraced,
               "traced parallel verify differs from the untraced session");
  result.Check(ladder.warm_inds == untraced,
               "traced warm lookup differs from the untraced session");
  SPIDER_RETURN_NOT_OK(
      ServerProbe(args, ladder.generated, expected, tracer, result));
  AttributionMetrics(args.e2e_seconds, ladder.composed_s, tracer,
                     NowSeconds() - traced_start, result);
  return tracer.Write(args.trace_out);
}

Status TraceDaemon(const Workload& workload, const Args& args,
                   PhaseResult& result) {
  Tracer tracer;
  tracer.NameTrack(kReplayTrack, "cold pipeline replay (top workspace)");
  tracer.NameTrack(kProbeTrack, "layer probes");
  for (int c = 0; c < workload.daemon.connections; ++c) {
    tracer.NameTrack(kServerTrack + c, "connection " + std::to_string(c));
  }
  const double traced_start = NowSeconds();
  DaemonRun run;
  SPIDER_RETURN_NOT_OK(DriveDaemon(workload, args, result, &run));
  ServerMetrics(run.records, tracer, result);

  // The client-side spans tile each job; what the session itself reports
  // as its run time is the attributed share of the job's running span.
  double latency = 0;
  double attributed = 0;
  for (const JobRecord& r : run.records) {
    if (!r.ok || r.job.append) continue;
    latency += Latency(r);
    attributed += (r.submit_end - r.submit_start) + (r.started - r.submit_end) +
                  std::min(r.session_seconds, r.terminal - r.started) +
                  (r.report_end - r.report_start);
  }

  const int top = TopWorkspace(workload.daemon, args.seed);
  const std::string known = SerializeInds(DaemonKnownInds(workload.daemon));
  Ladder ladder;
  SPIDER_RETURN_NOT_OK(RunLadder(
      args.dir / "csv" / WorkspaceName(top),
      DaemonWorkspaceWriter(workload.daemon, args.seed, top),
      args.dir / "trace", fs::path(), tracer, result, &ladder));
  result.Check(ladder.serial_inds == known && ladder.parallel_inds == known &&
                   ladder.warm_inds == known,
               "traced replay differs from the workspace's known IND set");
  const double traced_wall = NowSeconds() - traced_start;
  AttributionMetrics(latency, attributed, tracer, traced_wall, result);
  return tracer.Write(args.trace_out);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

Status ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "phase") {
      args->phase = value;
    } else if (key == "dir") {
      args->dir = value;
    } else if (key == "scale") {
      args->scale = value;
    } else if (key == "spiderd") {
      args->spiderd = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "e2e-seconds") {
      args->e2e_seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "expect-satisfied") {
      args->expect_satisfied = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  if (args->dir.empty()) return Status::InvalidArgument("--dir is required");
  if (args->scale != "full" && args->scale != "smoke") {
    return Status::InvalidArgument("--scale must be full or smoke");
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (std::strcmp(SPIDER_E2E_BUILD_TYPE, "Release") != 0) {
    std::cerr << "spider_e2e: refusing to measure a " << SPIDER_E2E_BUILD_TYPE
              << " build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
  }
  Args args;
  if (Status parsed = ParseArgs(argc, argv, &args); !parsed.ok()) {
    std::cerr << "spider_e2e: " << parsed.ToString() << "\n";
    return 2;
  }
  const std::vector<Workload> workloads = Workloads(args.scale == "smoke");
  const auto workload =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return w.name == args.workload; });
  if (workload == workloads.end()) {
    std::cerr << "spider_e2e: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const bool daemon = workload->kind == Kind::kDaemon;
  if ((daemon || args.phase == "trace") && args.spiderd.empty()) {
    std::cerr << "spider_e2e: --spiderd is required for this phase\n";
    return 2;
  }
  fs::create_directories(args.dir);

  PhaseResult result;
  Status status;
  if (args.phase == "setup") {
    status = Setup(*workload, args, result);
  } else if (args.phase == "measure") {
    status = daemon ? MeasureDaemon(*workload, args, result)
                    : MeasureBatch(*workload, args, result);
  } else if (args.phase == "trace") {
    if (args.trace_out.empty()) args.trace_out = args.dir / "trace.json";
    status = daemon ? TraceDaemon(*workload, args, result)
                    : TraceBatch(*workload, args, result);
  } else {
    std::cerr << "spider_e2e: --phase must be setup, measure or trace\n";
    return 2;
  }
  if (!status.ok()) result.Check(false, status.ToString());
  std::cout << result.ToJson() << "\n";
  return result.failed() > 0 ? 1 : 0;
}

}  // namespace
}  // namespace spider::e2e

int main(int argc, char** argv) { return spider::e2e::Main(argc, argv); }
