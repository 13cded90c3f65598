#include "bench/e2e/spiderd_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace spider::e2e {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Case-insensitive lookup of a header's value in a raw header block.
std::string HeaderValue(std::string_view headers, std::string_view name) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t end = headers.find("\r\n", pos);
    if (end == std::string_view::npos) end = headers.size();
    const std::string_view line = headers.substr(pos, end - pos);
    const size_t colon = line.find(':');
    if (colon == name.size() &&
        strncasecmp(line.data(), name.data(), name.size()) == 0) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      return std::string(value);
    }
    pos = end + 2;
  }
  return "";
}

}  // namespace

Result<std::unique_ptr<HttpConnection>> HttpConnection::Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("connect to spiderd");
    close(fd);
    return status;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<HttpConnection>(new HttpConnection(fd));
}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) close(fd_);
}

Result<HttpReply> HttpConnection::Request(std::string_view method,
                                          std::string_view path,
                                          std::string_view body) {
  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty()) {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("send to spiderd");
    sent += static_cast<size_t>(n);
  }

  // Reads until `pending_` holds at least `want` bytes.
  auto fill = [this](size_t want) -> Status {
    char chunk[16384];
    while (pending_.size() < want) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Errno("recv from spiderd");
      if (n == 0) return Status::IOError("spiderd closed the connection");
      pending_.append(chunk, static_cast<size_t>(n));
    }
    return Status::OK();
  };
  size_t header_end = std::string::npos;
  while ((header_end = pending_.find("\r\n\r\n")) == std::string::npos) {
    SPIDER_RETURN_NOT_OK(fill(pending_.size() + 1));
  }
  const std::string_view head(pending_.data(), header_end);
  HttpReply reply;
  // "HTTP/1.1 200 OK"
  const size_t space = head.find(' ');
  if (space == std::string_view::npos) {
    return Status::IOError("malformed status line from spiderd");
  }
  reply.status = std::atoi(std::string(head.substr(space + 1, 3)).c_str());
  const size_t length = static_cast<size_t>(
      std::strtoull(HeaderValue(head, "Content-Length").c_str(), nullptr, 10));
  const size_t body_start = header_end + 4;
  SPIDER_RETURN_NOT_OK(fill(body_start + length));
  reply.body = pending_.substr(body_start, length);
  pending_.erase(0, body_start + length);
  return reply;
}

Result<std::unique_ptr<SpiderdProcess>> SpiderdProcess::Start(
    const std::filesystem::path& binary, const std::filesystem::path& root,
    int threads, int max_sessions, const std::filesystem::path& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> args = {
      binary.string(), "--root=" + root.string(), "--port=0",
      "--threads=" + std::to_string(threads),
      "--max-sessions=" + std::to_string(max_sessions)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    return Status::IOError("cannot start " + binary.string() + ": " +
                           std::strerror(spawned));
  }
  std::unique_ptr<SpiderdProcess> process(new SpiderdProcess(pid, 0));

  // "spiderd serving <root> on 127.0.0.1:<port>"
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(log);
    std::stringstream text;
    text << in.rdbuf();
    const std::string content = text.str();
    const size_t line = content.find("spiderd serving ");
    const size_t newline =
        line == std::string::npos ? line : content.find('\n', line);
    if (newline != std::string::npos) {
      const size_t colon = content.rfind(':', newline);
      process->port_ = std::atoi(content.c_str() + colon + 1);
      return process;
    }
    int wstatus = 0;
    if (waitpid(pid, &wstatus, WNOHANG) == pid) {
      process->pid_ = -1;
      return Status::IOError("spiderd exited before serving: " + content);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::IOError("spiderd did not announce its port within 60 s");
}

SpiderdProcess::~SpiderdProcess() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int wstatus = 0;
  while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

Result<double> SpiderdProcess::Stop() {
  if (pid_ <= 0) return Status::InvalidArgument("spiderd is not running");
  if (kill(pid_, SIGTERM) != 0) return Errno("kill spiderd");
  int wstatus = 0;
  rusage usage{};
  while (wait4(pid_, &wstatus, 0, &usage) < 0) {
    if (errno != EINTR) return Errno("wait4 spiderd");
  }
  pid_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::IOError("spiderd did not exit cleanly (status " +
                           std::to_string(wstatus) + ")");
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

}  // namespace spider::e2e
