// spider — command-line schema discovery for CSV dumps.
//
// Usage:
//   spider profile <csv_dir|workspace> [--kind=ind|ucc|fd|afd]
//                            [--approach=NAME]
//                            [--backend=memory|disk] [--workspace=DIR]
//                            [--max-value-pretest]
//                            [--sampling-pretest] [--sigma=S]
//                            [--error=E] [--max-lhs=K]
//                            [--time-budget=S] [--threads=N] [--progress]
//                            [--no-block-skip] [--json]
//   spider import <csv_dir> --workspace=DIR [--backend=memory|disk]
//                           [--block-bytes=N] [--append]
//   spider discover <csv_dir|workspace> [--approach=NAME]
//                   [--no-surrogate-filter]
//   spider links <source_csv_dir> <target_csv_dir> [--strip-prefixes]
//                [--min-coverage=C]
//   spider approaches [--json]
//   spider serve <workspace_root> [--host=ADDR] [--port=N] [--threads=N]
//                [--max-sessions=N]
//   spider version | --version
//
// `profile` prints the satisfied INDs (--sigma=S < 1 verifies σ-partial
// INDs through the same session run, with spider-merge unless --approach
// names another partial-capable verifier; an n-ary approach appends the
// discovered composite INDs). With
// --kind=ucc|fd|afd it runs a dependency discoverer over the same data
// instead: minimal unique column combinations, exact functional
// dependencies, or approximate FDs whose g3-style error stays within
// --error=E (--max-lhs caps the determinant arity). Omitting --approach
// picks the kind's default discoverer;
// `import` streams a CSV dump into an out-of-core disk-store workspace
// (pay the parse once, profile many times with bounded memory); with
// --append the dump's rows are appended to an existing workspace instead —
// new tables are created, existing tables grow, and the persisted profile
// (spider_profile.manifest) invalidates exactly the touched columns;
// `discover` runs the whole Aladin-style pipeline and prints the report;
// `links` finds cross-database links into the target's accession columns;
// `serve` runs the spiderd daemon (docs/SERVER.md) over a directory of
// imported workspaces — the same HTTP/JSON API as the standalone spiderd
// binary, sharing one extractor cache per workspace across requests;
// `approaches` lists every registered verification approach with its
// capabilities (--json emits the machine-readable form the docs
// capability matrix is generated from). Approach names come from the
// algorithm registry — the CLI has no hard-coded list.
//
// Exit codes: 0 success, 1 runtime failure (I/O, bad data), 2 usage error
// (unknown command/flag/approach, malformed flag value).
//
// Every command that takes a data directory accepts either a CSV dump or
// an already-imported workspace (auto-detected via its manifest). With
// --backend=disk a CSV dump is streamed through the disk store first —
// peak memory stays bounded by storage-block buffers regardless of dump
// size — into --workspace (or a temp directory for this run only).
//
// Ctrl-C (SIGINT) cancels a running profile cooperatively: the run stops
// at the next poll and the partial finished=false report is still printed.
// --progress writes a live progress line to stderr; --threads=N runs the
// verification phase on N workers (0 = hardware concurrency) with results
// identical to --threads=1. --no-block-skip disables zonemap block
// skipping in the merge loops (same INDs, more tuples read — the parity
// baseline).
//
// Profiling an imported workspace persists its profile next to the data
// (sorted set files plus spider_profile.manifest): a rerun reuses every
// set file and verdict whose fingerprints still verify and revalidates
// only candidates whose columns changed since. --no-profile-cache runs
// from scratch in a temp workspace instead (docs/CLI.md).

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <fstream>

#include "src/common/stopwatch.h"
#include "src/common/temp_dir.h"
#include "src/discovery/graph_export.h"
#include "src/discovery/link_discovery.h"
#include "src/discovery/report.h"
#include "src/common/string_util.h"
#include "src/ind/dependency.h"
#include "src/ind/registry.h"
#include "src/ind/report_json.h"
#include "src/ind/run_options_parse.h"
#include "src/ind/session.h"
#include "src/server/server.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace {

using namespace spider;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

// SIGINT flips the token; every algorithm polls it cooperatively, so an
// interrupted run still reports the INDs it had confirmed. The handler
// resets itself so a second Ctrl-C force-kills as usual.
CancellationToken g_sigint_token;

void HandleSigint(int) {
  g_sigint_token.Cancel();
  std::signal(SIGINT, SIG_DFL);
}

void InstallSigintHandler() { std::signal(SIGINT, HandleSigint); }

// Throttled stderr progress line ("\r"-rewritten in place).
void PrintProgress(const RunProgress& progress) {
  static std::atomic<int64_t> last_printed{-1};
  // One line per ~1/100th of the work (or every update when total is
  // unknown/small) keeps the write volume negligible.
  const int64_t stride = progress.total > 200 ? progress.total / 100 : 1;
  const int64_t bucket = progress.done / (stride > 0 ? stride : 1);
  int64_t prev = last_printed.load(std::memory_order_relaxed);
  if (bucket == prev && progress.done != progress.total) return;
  last_printed.store(bucket, std::memory_order_relaxed);
  std::cerr << "\rtested " << progress.done << "/" << progress.total
            << " (" << Stopwatch::FormatDuration(progress.elapsed_seconds)
            << ")" << std::flush;
}

// The approach list in the usage text is derived from the registry, so a
// newly registered algorithm shows up without touching the CLI. N-ary
// expansions are listed alongside the unary verifiers — the session runs
// them on top of --nary-base.
std::string ApproachList() {
  return JoinStrings(AlgorithmRegistry::Global().Names(), ", ");
}

// Build identity injected at configure time (tools/CMakeLists.txt).
#ifndef SPIDER_GIT_DESCRIBE
#define SPIDER_GIT_DESCRIBE "unknown"
#endif
#ifndef SPIDER_BUILD_TYPE
#define SPIDER_BUILD_TYPE "unknown"
#endif

int RunVersion() {
  std::cout << "spider " << SPIDER_GIT_DESCRIBE << " (" << SPIDER_BUILD_TYPE
            << " build)\n";
  return 0;
}

int Usage() {
  std::cerr
      << "usage:\n"
         "  spider profile <csv_dir|workspace> [--kind=ind|ucc|fd|afd]\n"
         "                           [--approach=NAME]\n"
         "                           [--backend=memory|disk] "
         "[--workspace=DIR]\n"
         "                           [--max-value-pretest]\n"
         "                           [--sampling-pretest] [--sigma=S]\n"
         "                           [--error=E] [--max-lhs=K]\n"
         "                           [--time-budget=S] [--threads=N]\n"
         "                           [--no-block-skip] [--progress] [--json]\n"
         "  spider import <csv_dir> --workspace=DIR "
         "[--backend=memory|disk]\n"
         "                          [--block-bytes=N] [--append]\n"
         "  spider discover <csv_dir|workspace> [--approach=NAME] "
         "[--no-surrogate-filter] [--dot=FILE]\n"
         "  spider links <source_dir> <target_dir> [--strip-prefixes]\n"
         "               [--min-coverage=C]\n"
         "  spider approaches [--json]\n"
         "  spider serve <workspace_root> [--host=ADDR] [--port=N] "
         "[--threads=N]\n"
         "               [--max-sessions=N]\n"
         "  spider version\n"
         "\nn-ary approaches take [--nary-base=NAME] [--max-arity=K]\n"
         "--sigma=S < 1 verifies sigma-partial INDs (default approach "
         "spider-merge)\n"
         "--kind=ucc|fd|afd runs dependency discovery (--error=E accepts "
         "g3'\nerror up to E; --max-lhs=K caps the FD determinant arity)\n"
         "\napproaches: "
      << ApproachList() << "\n";
  return 2;
}

struct Flags {
  std::vector<std::string> positional;
  /// The unified run options — everything `spider profile` and a spiderd
  /// request body share. Built by ParseRunOptions from `pairs`, so the CLI
  /// and the daemon validate values with byte-identical messages.
  RunOptions run;
  /// The raw option key/values handed to ParseRunOptions (kept so `serve`
  /// can tell whether a key was set explicitly).
  std::vector<RunOptionKv> pairs;
  StorageBackend backend = StorageBackend::kMemory;
  bool backend_set = false;  // --backend was given explicitly
  std::string workspace;
  int64_t block_bytes = 0;  // 0 = DiskStoreOptions default
  bool surrogate_filter = true;
  bool strip_prefixes = false;
  bool json = false;
  bool progress = false;
  std::string dot_path;
  double min_coverage = 1.0;  // links --min-coverage
  std::string host = "127.0.0.1";  // serve --host
  int port = 4280;                 // serve --port
  int max_sessions = -1;  // serve --max-sessions; -1 = server default
  bool append = false;    // import --append
  bool ok = true;
};

// CLI-specific flags (transport, output shape) are handled here; every
// run-option flag falls through into key/value pairs for ParseRunOptions —
// the same parser spiderd feeds JSON bodies into — so validation and error
// texts cannot diverge between the two front-ends.
Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      const std::string value = arg.substr(10);
      flags.backend_set = true;
      if (value == "memory") {
        flags.backend = StorageBackend::kMemory;
      } else if (value == "disk") {
        flags.backend = StorageBackend::kDisk;
      } else {
        std::cerr << "--backend must be 'memory' or 'disk', got '" << value
                  << "'\n";
        flags.ok = false;
        return flags;
      }
    } else if (arg.rfind("--workspace=", 0) == 0) {
      flags.workspace = arg.substr(12);
    } else if (arg.rfind("--block-bytes=", 0) == 0) {
      const std::string value = arg.substr(14);
      char* end = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 1024) {
        std::cerr << "--block-bytes must be an integer >= 1024, got '" << value
                  << "'\n";
        flags.ok = false;
        return flags;
      }
      flags.block_bytes = static_cast<int64_t>(parsed);
    } else if (arg == "--append") {
      flags.append = true;
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      const std::string value = arg.substr(15);
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0) {
        std::cerr << "--max-sessions must be a non-negative integer "
                     "(0 = unlimited), got '"
                  << value << "'\n";
        flags.ok = false;
        return flags;
      }
      flags.max_sessions = static_cast<int>(parsed);
    } else if (arg == "--no-surrogate-filter") {
      flags.surrogate_filter = false;
    } else if (arg == "--strip-prefixes") {
      flags.strip_prefixes = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--dot=", 0) == 0) {
      flags.dot_path = arg.substr(6);
    } else if (arg.rfind("--min-coverage=", 0) == 0) {
      flags.min_coverage = std::atof(arg.substr(15).c_str());
    } else if (arg == "--progress") {
      flags.progress = true;
    } else if (arg.rfind("--host=", 0) == 0) {
      flags.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      const std::string value = arg.substr(7);
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0 || parsed > 65535) {
        std::cerr << "--port must be an integer in [0, 65535], got '" << value
                  << "'\n";
        flags.ok = false;
        return flags;
      }
      flags.port = static_cast<int>(parsed);
    } else if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      std::string key = eq == std::string::npos ? arg.substr(2)
                                                : arg.substr(2, eq - 2);
      std::string value =
          eq == std::string::npos ? std::string() : arg.substr(eq + 1);
      flags.pairs.push_back(RunOptionKv{std::move(key), std::move(value)});
    } else {
      flags.positional.push_back(arg);
    }
  }
  auto run = ParseRunOptions(flags.pairs);
  if (!run.ok()) {
    std::cerr << run.status().message() << "\n";
    flags.ok = false;
    return flags;
  }
  flags.run = std::move(*run);
  return flags;
}

RunOptions MakeRunOptions(const Flags& flags) {
  RunOptions options = flags.run;
  options.cancel = &g_sigint_token;
  if (flags.progress) options.progress = PrintProgress;
  return options;
}

// A catalog plus whatever keeps its backing storage alive (a temp disk
// workspace when --backend=disk ran without --workspace).
struct LoadedCatalog {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<TempDir> temp_workspace;
  /// Non-empty when the catalog lives in a durable disk workspace the user
  /// named: the profile (set files + spider_profile.manifest) persists
  /// there across runs. Temp workspaces stay empty — persisting into a
  /// directory that dies with the process buys nothing.
  std::string workspace_dir;
};

DiskStoreOptions MakeDiskOptions(const Flags& flags) {
  DiskStoreOptions options;
  if (flags.block_bytes > 0) options.block_bytes = flags.block_bytes;
  return options;
}

// Resolves a data-directory argument: an existing disk-store workspace
// reopens directly; a CSV dump loads into memory, or — with
// --backend=disk — streams through a DiskCatalogWriter first.
Result<LoadedCatalog> LoadCatalog(const std::string& dir, const Flags& flags) {
  LoadedCatalog loaded;
  if (IsDiskCatalogDir(dir)) {
    SPIDER_ASSIGN_OR_RETURN(loaded.catalog, OpenDiskCatalog(dir));
    loaded.workspace_dir = dir;
    return loaded;
  }
  if (flags.backend == StorageBackend::kDisk) {
    // A workspace imported by an earlier run reopens directly — the "pay
    // the parse once" workflow; delete the directory to force a reimport.
    if (!flags.workspace.empty() && IsDiskCatalogDir(flags.workspace)) {
      std::cerr << "note: reusing imported workspace " << flags.workspace
                << " (delete it to reimport " << dir << ")\n";
      SPIDER_ASSIGN_OR_RETURN(loaded.catalog,
                              OpenDiskCatalog(flags.workspace));
      loaded.workspace_dir = flags.workspace;
      return loaded;
    }
    std::filesystem::path workspace = flags.workspace;
    if (workspace.empty()) {
      SPIDER_ASSIGN_OR_RETURN(loaded.temp_workspace,
                              TempDir::Make("spider-workspace"));
      workspace = loaded.temp_workspace->path();
    } else {
      loaded.workspace_dir = flags.workspace;
    }
    const std::string name =
        std::filesystem::path(dir).filename().string();
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<DiskCatalogWriter> writer,
        DiskCatalogWriter::Create(workspace, name, MakeDiskOptions(flags)));
    SPIDER_ASSIGN_OR_RETURN(loaded.catalog,
                            ImportCsvDirectory(dir, CsvOptions{}, *writer));
    return loaded;
  }
  SPIDER_ASSIGN_OR_RETURN(loaded.catalog, ReadCsvDirectory(dir));
  return loaded;
}

int RunImport(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  const std::string& dir = flags.positional[0];
  Stopwatch watch;
  watch.Start();
  if (flags.backend_set && flags.backend == StorageBackend::kMemory &&
      !flags.workspace.empty()) {
    std::cerr << "--backend=memory is a validation load and takes no "
                 "--workspace (drop one of the flags)\n";
    return 2;
  }
  if (flags.backend == StorageBackend::kDisk || !flags.workspace.empty()) {
    if (flags.workspace.empty()) {
      std::cerr << "import --backend=disk requires --workspace=DIR\n";
      return 2;
    }
    if (flags.append) {
      if (!IsDiskCatalogDir(flags.workspace)) {
        std::cerr << "import --append needs an existing imported workspace, "
                  << flags.workspace << " has no spider_store.manifest\n";
        return 2;
      }
      auto writer =
          DiskCatalogWriter::OpenForAppend(flags.workspace, MakeDiskOptions(flags));
      if (!writer.ok()) return Fail(writer.status());
      auto catalog = ImportCsvDirectory(dir, CsvOptions{}, **writer);
      if (!catalog.ok()) return Fail(catalog.status());
      std::cout << "appended into " << flags.workspace << ": now "
                << (*catalog)->table_count() << " tables, "
                << (*catalog)->attribute_count() << " attributes\n"
                << "on-disk size: "
                << FormatBytes((*catalog)->ApproximateByteSize()) << "  ("
                << Stopwatch::FormatDuration(watch.ElapsedSeconds()) << ")\n"
                << "profile it with: spider profile " << flags.workspace
                << "\n";
      return 0;
    }
    const std::string name = std::filesystem::path(dir).filename().string();
    auto writer =
        DiskCatalogWriter::Create(flags.workspace, name, MakeDiskOptions(flags));
    if (!writer.ok()) return Fail(writer.status());
    auto catalog = ImportCsvDirectory(dir, CsvOptions{}, **writer);
    if (!catalog.ok()) return Fail(catalog.status());
    std::cout << "imported " << (*catalog)->table_count() << " tables, "
              << (*catalog)->attribute_count() << " attributes into "
              << flags.workspace << "\n"
              << "on-disk size: "
              << FormatBytes((*catalog)->ApproximateByteSize()) << "  ("
              << Stopwatch::FormatDuration(watch.ElapsedSeconds()) << ")\n"
              << "profile it with: spider profile " << flags.workspace << "\n";
    return 0;
  }
  // Memory backend: a validation load (nothing persists).
  auto catalog = ReadCsvDirectory(dir);
  if (!catalog.ok()) return Fail(catalog.status());
  std::cout << "loaded " << (*catalog)->table_count() << " tables, "
            << (*catalog)->attribute_count() << " attributes ("
            << FormatBytes((*catalog)->ApproximateByteSize()) << " in memory, "
            << Stopwatch::FormatDuration(watch.ElapsedSeconds()) << ")\n";
  return 0;
}

int RunProfile(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  if (flags.run.min_coverage < 1.0 && flags.run.kind &&
      *flags.run.kind != DependencyKind::kInd) {
    std::cerr << "--sigma is σ-partial IND coverage; approximate --kind="
              << KindName(*flags.run.kind) << " discovery takes --error=E\n";
    return 2;
  }
  auto catalog = LoadCatalog(flags.positional[0], flags);
  if (!catalog.ok()) return Fail(catalog.status());
  if (!flags.json) {
    std::cout << "loaded " << catalog->catalog->table_count() << " tables, "
              << catalog->catalog->attribute_count() << " attributes\n\n";
  }

  InstallSigintHandler();
  // A durable workspace profiles in place: sorted sets and the profile
  // manifest land next to spider_store.manifest, so the next run (or a
  // spiderd restart) reuses them. --no-profile-cache keeps the scratch
  // temp-dir behavior.
  SessionOptions session_options;
  if (!catalog->workspace_dir.empty() && flags.run.profile_cache) {
    session_options.work_dir = catalog->workspace_dir;
    session_options.persist_profile = true;
  }
  SpiderSession session(*catalog->catalog, session_options);
  auto report = session.Run(MakeRunOptions(flags));
  if (flags.progress) std::cerr << "\n";
  if (!report.ok()) return Fail(report.status());
  if (flags.json) {
    // The shared serializer — the exact document spiderd's job-result
    // endpoint returns for the same run (docs/SERVER.md).
    ReportJsonContext context;
    context.backend = catalog->catalog->out_of_core() ? "disk" : "memory";
    context.tables = static_cast<int64_t>(catalog->catalog->table_count());
    context.attributes =
        static_cast<int64_t>(catalog->catalog->attribute_count());
    context.cancelled = g_sigint_token.cancelled();
    std::cout << SessionReportToJson(*report, context) << "\n";
    return 0;
  }
  if (report->kind != DependencyKind::kInd) {
    std::cout << report->ToString();
    return 0;
  }
  std::cout << report->ToString() << "\nsatisfied INDs"
            << (report->run.finished
                    ? ""
                    : (g_sigint_token.cancelled()
                           ? " (partial, interrupted)"
                           : " (partial, budget expired)"))
            << ":\n";
  for (const Ind& ind : report->run.satisfied) {
    std::cout << "  " << ind.ToString() << "\n";
  }
  if (report->nary) {
    std::cout << "\nn-ary INDs (via " << report->nary_base << " base"
              << (report->nary_run.finished ? "" : ", partial") << "):\n";
    for (const NaryInd& ind : report->nary_run.satisfied) {
      std::cout << "  " << ind.ToString() << "\n";
    }
  }
  return 0;
}

int RunDiscover(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  auto catalog = LoadCatalog(flags.positional[0], flags);
  if (!catalog.ok()) return Fail(catalog.status());

  InstallSigintHandler();
  SchemaReportOptions options;
  options.ind = MakeRunOptions(flags);
  // `discover` has always run exact INDs; a stray --sigma must not flip
  // the pipeline into σ-partial mode.
  options.ind.min_coverage = 1.0;
  options.filter_surrogates = flags.surrogate_filter;
  auto report = BuildSchemaReport(*catalog->catalog, options);
  if (!report.ok()) return Fail(report.status());
  std::cout << report->ToString();
  if (!flags.dot_path.empty()) {
    GraphExportOptions dot_options;
    dot_options.name = catalog->catalog->name();
    std::ofstream out(flags.dot_path);
    out << ExportSchemaDot(*report, dot_options);
    if (!out) return Fail(Status::IOError("cannot write " + flags.dot_path));
    std::cout << "\nschema graph written to " << flags.dot_path << "\n";
  }
  return 0;
}

int RunLinks(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  auto source = ReadCsvDirectory(flags.positional[0]);
  if (!source.ok()) return Fail(source.status());
  auto target = ReadCsvDirectory(flags.positional[1]);
  if (!target.ok()) return Fail(target.status());

  LinkDiscoveryOptions options;
  options.try_prefix_stripping = flags.strip_prefixes;
  options.min_coverage = flags.min_coverage;
  auto links = LinkDiscovery(options).FindLinks(**source, **target);
  if (!links.ok()) return Fail(links.status());
  std::cout << "links from " << (*source)->name() << " into "
            << (*target)->name() << ":\n";
  for (const DatabaseLink& link : *links) {
    std::cout << "  " << link.source.ToString() << " -> "
              << link.target.ToString() << "  (coverage " << link.coverage
              << (link.via_prefix_strip ? ", via stripped prefix" : "")
              << ")\n";
  }
  return 0;
}

int RunApproaches(const Flags& flags) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  if (flags.json) {
    // Machine-readable capability listing: the source of truth for the
    // docs capability matrix (tools/gen_capability_docs.sh) and the body
    // of spiderd's GET /approaches.
    std::cout << ApproachesToJson() << "\n";
    return 0;
  }
  for (const std::string& name : registry.Names()) {
    auto entry = registry.Find(name);
    if (!entry.ok()) return Fail(entry.status());
    const AlgorithmCapabilities* capabilities = &(*entry)->capabilities;
    std::cout << name << "\n    " << capabilities->summary << "\n    "
              << KindName(capabilities->kind) << ", "
              << (capabilities->nary ? "n-ary expansion, "
                                     : "")
              << (capabilities->database_internal ? "database-internal"
                                                  : "database-external")
              << (capabilities->needs_extractor ? ", needs value-set extractor"
                                                : "")
              << (capabilities->supports_partial
                      ? (capabilities->kind == DependencyKind::kInd &&
                                 !capabilities->nary
                             ? ", sigma-partial"
                             : ", g3'-partial")
                      : "")
              << (capabilities->supports_time_budget ? ", time budget" : "")
              << (capabilities->supports_out_of_core ? ", out-of-core" : "")
              << "\n";
  }
  return 0;
}

// `spider serve` — the spiderd daemon behind the main CLI (tools/spiderd.cc
// is the standalone binary over the same server library). The signal
// handler may only write(2) to the self-pipe, so the fd lives in a
// sig_atomic_t set before handlers are installed.
volatile std::sig_atomic_t g_serve_stop_fd = -1;

void HandleServeStop(int /*signum*/) {
  if (g_serve_stop_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = write(g_serve_stop_fd, &byte, 1);
  }
}

int RunServe(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  ServerOptions options;
  options.root = flags.positional[0];
  options.host = flags.host;
  options.port = flags.port;
  // The daemon's worker-pool default is hardware concurrency, not the
  // profile command's single-threaded paper configuration — only an
  // explicit --threads=N overrides it.
  for (const RunOptionKv& kv : flags.pairs) {
    if (kv.key == "threads") options.worker_threads = flags.run.threads;
  }
  if (flags.max_sessions >= 0) options.max_sessions = flags.max_sessions;
  SpiderServer server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  g_serve_stop_fd = server.stop_write_fd();
  struct sigaction action{};
  action.sa_handler = HandleServeStop;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client that disappears mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "spiderd serving " << flags.positional[0] << " on "
            << flags.host << ":" << server.port() << "\n";
  Status served = server.Run();
  if (!served.ok()) return Fail(served);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "version" || command == "--version") return RunVersion();
  Flags flags = ParseFlags(argc, argv, 2);
  if (!flags.ok) return 2;
  if (command == "profile") return RunProfile(flags);
  if (command == "import") return RunImport(flags);
  if (command == "discover") return RunDiscover(flags);
  if (command == "links") return RunLinks(flags);
  if (command == "approaches") return RunApproaches(flags);
  if (command == "serve") return RunServe(flags);
  return Usage();
}
