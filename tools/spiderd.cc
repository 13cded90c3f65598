// spiderd — the long-lived profiling daemon.
//
//   spiderd --root=DIR [--host=ADDR] [--port=N] [--threads=N]
//           [--max-sessions=N]
//
// Serves the disk workspaces under --root over a small HTTP/JSON API
// (docs/SERVER.md): POST /jobs enqueues import/profile runs on a worker
// pool, GET /jobs/<id> polls progress, GET /jobs/<id>/report returns the
// exact document `spider profile --json` prints. SIGINT/SIGTERM drain
// in-flight jobs into partial reports before exit.

#include <unistd.h>

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "src/server/server.h"

namespace {

// The signal handler may only touch this fd with write(2); it is set once
// before handlers are installed.
volatile sig_atomic_t g_stop_fd = -1;

void HandleStopSignal(int /*signum*/) {
  if (g_stop_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = write(g_stop_fd, &byte, 1);
  }
}

int Usage() {
  std::cerr << "usage: spiderd --root=DIR [--host=ADDR] [--port=N] "
               "[--threads=N] [--max-sessions=N]\n"
               "  --root=DIR     directory of disk workspaces to serve "
               "(required)\n"
               "  --host=ADDR    listen address (default 127.0.0.1)\n"
               "  --port=N       TCP port (default 4280; 0 = ephemeral)\n"
               "  --threads=N    job worker threads, at most 4096 (default: "
               "hardware concurrency)\n"
               "  --max-sessions=N  open workspace sessions kept before LRU "
               "eviction (default 64; 0 = unlimited)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spider::Result<spider::ServerOptions> parsed =
      spider::ParseServerArgs(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::cerr << "spiderd: " << parsed.status().message() << "\n";
    return Usage();
  }
  spider::ServerOptions options = std::move(parsed).value();
  const std::string root = options.root;
  const std::string host = options.host;

  spider::SpiderServer server(std::move(options));
  spider::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "spiderd: " << started.ToString() << "\n";
    return 1;
  }

  g_stop_fd = server.stop_write_fd();
  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client that disappears mid-response must not kill the daemon.
  signal(SIGPIPE, SIG_IGN);

  // Announce the bound port (stderr) — with --port=0 this is the only way
  // scripts learn the ephemeral port.
  std::cerr << "spiderd serving " << root << " on " << host << ":"
            << server.port() << "\n";

  spider::Status served = server.Run();
  if (!served.ok()) {
    std::cerr << "spiderd: " << served.ToString() << "\n";
    return 1;
  }
  return 0;
}
