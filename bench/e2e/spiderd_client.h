// Loopback access to spiderd for the benchmark: the daemon runs as a child
// process on an ephemeral port, and each client thread owns one keep-alive
// HTTP/1.1 connection.

#pragma once

#include <sys/types.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace spider::e2e {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One keep-alive connection to 127.0.0.1. Not thread-safe.
class HttpConnection {
 public:
  [[nodiscard]]
  static Result<std::unique_ptr<HttpConnection>> Connect(int port);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and reads the whole reply (Content-Length framed).
  [[nodiscard]]
  Result<HttpReply> Request(std::string_view method, std::string_view path,
                            std::string_view body = {});

 private:
  explicit HttpConnection(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string pending_;  // bytes received past the previous reply
};

/// A spiderd child process. The destructor kills and reaps it if Stop()
/// was not called.
class SpiderdProcess {
 public:
  /// Starts `binary` serving `root` with --port=0 and waits for the port
  /// announcement, which spiderd writes to stderr (redirected to `log`).
  [[nodiscard]]
  static Result<std::unique_ptr<SpiderdProcess>> Start(
      const std::filesystem::path& binary, const std::filesystem::path& root,
      int threads, int max_sessions, const std::filesystem::path& log);
  ~SpiderdProcess();
  SpiderdProcess(const SpiderdProcess&) = delete;
  SpiderdProcess& operator=(const SpiderdProcess&) = delete;

  int port() const { return port_; }

  /// SIGTERM (graceful drain), then reaps the process. Returns its peak
  /// resident set in MB (wait4 ru_maxrss).
  [[nodiscard]]
  Result<double> Stop();

 private:
  SpiderdProcess(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace spider::e2e
