#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/ind/run_options_parse.h"

namespace spider {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<ServerOptions> ParseServerArgs(const std::vector<std::string>& args) {
  ServerOptions options;
  options.port = 4280;
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--root") {
      options.root = value;
    } else if (key == "--host") {
      options.host = value;
    } else if (key == "--port") {
      SPIDER_ASSIGN_OR_RETURN(options.port,
                              ParseIntInRange("port", value, 0, 65535, ""));
    } else if (key == "--threads") {
      SPIDER_ASSIGN_OR_RETURN(
          options.worker_threads,
          ParseIntInRange("threads", value, 0, 4096,
                          " (0 = hardware concurrency)"));
    } else if (key == "--max-sessions") {
      SPIDER_ASSIGN_OR_RETURN(
          options.max_sessions,
          ParseIntInRange("max-sessions", value, 0,
                          std::numeric_limits<int>::max(), " (0 = unlimited)"));
    } else {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  if (options.root.empty()) {
    return Status::InvalidArgument("--root is required");
  }
  return options;
}

SpiderServer::SpiderServer(ServerOptions options)
    : options_(std::move(options)),
      workspaces_(options_.root, options_.max_sessions),
      jobs_(options_.worker_threads),
      router_(&workspaces_, &jobs_) {}

SpiderServer::~SpiderServer() {
  CloseAll();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (stop_pipe_[0] >= 0) close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) close(stop_pipe_[1]);
}

Status SpiderServer::Start() {
  if (pipe(stop_pipe_) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  SPIDER_RETURN_NOT_OK(SetNonBlocking(stop_pipe_[0]));

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid listen address '" +
                                   options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (listen(listen_fd_, 64) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  SPIDER_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  SPIDER_LOG(Info) << "spiderd listening on " << options_.host << ":"
                   << port_ << " serving " << options_.root;
  return Status::OK();
}

void SpiderServer::RequestStop() {
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    // A full pipe means a stop is already pending; dropping the byte is
    // fine either way.
    [[maybe_unused]] ssize_t ignored = write(stop_pipe_[1], &byte, 1);
  }
}

void SpiderServer::ServeConnection(int fd, Connection& connection) {
  char buffer[64 << 10];
  while (true) {
    const ssize_t got = recv(fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      Status fed =
          connection.parser.Feed(std::string_view(buffer,
                                                  static_cast<size_t>(got)));
      if (!fed.ok()) {
        JsonWriter error_json;
        error_json.BeginObject();
        error_json.KV("error", fed.message());
        error_json.EndObject();
        HttpResponse bad;
        bad.status_code = 400;
        bad.body = error_json.str();
        bad.close = true;
        connection.out += SerializeHttpResponse(bad);
        connection.close_after_write = true;
        return;
      }
      while (connection.parser.ready()) {
        const HttpRequest request = connection.parser.TakeRequest();
        HttpResponse response = router_.Handle(request);
        if (request.want_close) response.close = true;
        if (response.close) connection.close_after_write = true;
        connection.out += SerializeHttpResponse(response);
      }
      continue;
    }
    if (got == 0) {
      // Peer closed its write side; flush what we owe, then close.
      connection.close_after_write = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    connection.close_after_write = true;
    connection.out.clear();
    return;
  }
}

void SpiderServer::CloseAll() {
  for (const auto& [fd, _] : connections_) close(fd);
  connections_.clear();
}

Status SpiderServer::Run() {
  bool stop = false;
  while (!stop) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{stop_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [fd, connection] : connections_) {
      short events = POLLIN;
      if (!connection.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }

    const int ready = poll(fds.data(), fds.size(), /*timeout_ms=*/1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }

    if ((fds[0].revents & POLLIN) != 0) {
      stop = true;  // finish this sweep, then shut down below
    }

    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int client = accept(listen_fd_, nullptr, nullptr);
        if (client < 0) break;  // EAGAIN / transient: retry next sweep
        if (!SetNonBlocking(client).ok()) {
          close(client);
          continue;
        }
        const int one = 1;
        setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        connections_.emplace(client, Connection{});
      }
    }

    std::vector<int> to_close;
    for (size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& connection = it->second;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        to_close.push_back(fd);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        ServeConnection(fd, connection);
      }
      while (!connection.out.empty()) {
        const ssize_t sent =
            send(fd, connection.out.data(), connection.out.size(),
                 MSG_NOSIGNAL);
        if (sent > 0) {
          connection.out.erase(0, static_cast<size_t>(sent));
          continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (sent < 0 && errno == EINTR) continue;
        connection.out.clear();
        connection.close_after_write = true;
        break;
      }
      if (connection.out.empty() && connection.close_after_write) {
        to_close.push_back(fd);
      }
    }
    for (const int fd : to_close) {
      close(fd);
      connections_.erase(fd);
    }
  }

  SPIDER_LOG(Info) << "spiderd stopping: draining in-flight jobs";
  CloseAll();
  close(listen_fd_);
  listen_fd_ = -1;
  // Cancels every job token and blocks until the pool drains; cancelled
  // runs return partial (finished=false) reports that stay pollable until
  // the process exits.
  jobs_.Shutdown();
  return Status::OK();
}

}  // namespace spider
