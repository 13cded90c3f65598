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
#include <cstring>
#include <iostream>
#include <string>

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
               "  --threads=N    job worker threads (default: hardware "
               "concurrency)\n"
               "  --max-sessions=N  open workspace sessions kept before LRU "
               "eviction (default 64; 0 = unlimited)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spider::ServerOptions options;
  options.port = 4280;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--root=")) {
      options.root = v;
    } else if (const char* v = value_of("--host=")) {
      options.host = v;
    } else if (const char* v = value_of("--port=")) {
      char* end = nullptr;
      options.port = static_cast<int>(std::strtol(v, &end, 10));
      if (end == v || *end != '\0' || options.port < 0 ||
          options.port > 65535) {
        std::cerr << "--port must be an integer in [0, 65535], got '" << v
                  << "'\n";
        return 2;
      }
    } else if (const char* v = value_of("--threads=")) {
      char* end = nullptr;
      options.worker_threads = static_cast<int>(std::strtol(v, &end, 10));
      if (end == v || *end != '\0' || options.worker_threads < 0) {
        std::cerr << "--threads must be a non-negative integer, got '" << v
                  << "'\n";
        return 2;
      }
    } else if (const char* v = value_of("--max-sessions=")) {
      char* end = nullptr;
      options.max_sessions = static_cast<int>(std::strtol(v, &end, 10));
      if (end == v || *end != '\0' || options.max_sessions < 0) {
        std::cerr << "--max-sessions must be a non-negative integer "
                     "(0 = unlimited), got '"
                  << v << "'\n";
        return 2;
      }
    } else {
      return Usage();
    }
  }
  if (options.root.empty()) return Usage();
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
