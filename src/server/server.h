// spiderd's network front: a single-threaded poll() event loop over
// non-blocking sockets, with all profiling work handed off to the
// JobManager's pool.
//
// No external HTTP library and no thread-per-connection: the daemon's
// request handling is cheap (parse a small JSON body, poke the job table),
// so one loop thread multiplexing every connection is both simpler and
// immune to slow-client head-of-line blocking — a stalled reader only
// stalls its own buffered response. Long work never runs on the loop:
// POST /jobs enqueues and returns immediately.
//
// Shutdown is cooperative and signal-safe: RequestStop() writes one byte
// to a self-pipe the loop polls, so a SIGINT/SIGTERM handler can trigger
// it (write(2) is async-signal-safe; the daemon front-ends install exactly
// that handler). The loop then stops accepting, drops connections and
// drains the job manager — in-flight runs observe their cancelled tokens
// and come back as finished=false partial reports.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/server/handlers.h"
#include "src/server/http.h"
#include "src/server/job_manager.h"
#include "src/server/workspace_cache.h"

namespace spider {

/// Daemon configuration.
struct ServerOptions {
  /// Directory whose disk-catalog subdirectories are the served
  /// workspaces (WorkspaceCache root).
  std::string root;
  /// Listen address; loopback by default — spiderd has no auth layer, so
  /// exposing it beyond the host is an explicit decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  /// Job-manager worker threads; 0 = hardware concurrency.
  int worker_threads = 0;
  /// Maximum concurrently open workspace sessions; beyond it the least
  /// recently used session is evicted (jobs holding it finish unaffected,
  /// and its persisted profile survives for the reopen). 0 = unlimited.
  int max_sessions = 64;
};

/// spiderd's command line, without the program name: --root=DIR (required),
/// --host=ADDR, --port=N in [0, 65535] (default 4280), --threads=N in
/// [0, 4096] and --max-sessions=N in [0, INT_MAX]. Each number is
/// range-checked before it narrows to int, so a value past int's range is
/// an error, not a wrapped count. InvalidArgument names the offending
/// argument.
[[nodiscard]]
Result<ServerOptions> ParseServerArgs(const std::vector<std::string>& args);

/// \brief The daemon: listener, event loop, and the shared service state
/// (workspace sessions + job table) behind it.
class SpiderServer {
 public:
  explicit SpiderServer(ServerOptions options);
  ~SpiderServer();

  SpiderServer(const SpiderServer&) = delete;
  SpiderServer& operator=(const SpiderServer&) = delete;

  /// Binds and listens. After OK, port() returns the bound port.
  [[nodiscard]] Status Start();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// Write end of the self-pipe; a signal handler may write(2) one byte
  /// here to stop the loop. Valid after Start().
  int stop_write_fd() const { return stop_pipe_[1]; }

  /// Serves until RequestStop(); then drains jobs and returns. Call from
  /// exactly one thread, after Start().
  [[nodiscard]] Status Run();

  /// Stops the loop from any thread or from a signal handler (via
  /// stop_write_fd()). Idempotent.
  void RequestStop();

 private:
  struct Connection {
    HttpParser parser;
    /// Bytes serialized but not yet accepted by the socket.
    std::string out;
    /// Close once `out` drains (protocol error or Connection: close).
    bool close_after_write = false;
  };

  /// Levels every ready parser request through the router into `out`.
  void ServeConnection(int fd, Connection& connection);
  void CloseAll();

  ServerOptions options_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::map<int, Connection> connections_;

  WorkspaceCache workspaces_;
  JobManager jobs_;
  RequestRouter router_;
};

}  // namespace spider
