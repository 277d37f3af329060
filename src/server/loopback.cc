#include "server/loopback.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "util/fault_injection.h"

namespace pfql {
namespace server {

namespace {

constexpr int kBacklog = 64;

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

std::string ErrnoText(const std::string& call, int err) {
  return call + ": " + std::strerror(err);
}

}  // namespace

StatusOr<int> ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket", errno));
  const sockaddr_in addr = LoopbackAddress(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(
        ErrnoText("connect 127.0.0.1:" + std::to_string(port), err));
  }
  return fd;
}

LineReader::LineReader(int fd, size_t max_line_bytes,
                       const char* fault_point)
    : fd_(fd), max_line_bytes_(max_line_bytes), fault_point_(fault_point) {}

bool LineReader::HasLine() const {
  return buffer_.find('\n', consumed_) != std::string::npos;
}

StatusOr<std::string_view> LineReader::Next() {
  size_t scan = consumed_;
  for (;;) {
    const size_t newline = buffer_.find('\n', scan);
    if (newline != std::string::npos) {
      std::string_view line(buffer_.data() + consumed_, newline - consumed_);
      consumed_ = newline + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return line;
    }
    // No whole line left: keep the partial one; scan only new bytes.
    buffer_.erase(0, consumed_);
    consumed_ = 0;
    scan = buffer_.size();
    if (max_line_bytes_ > 0 && buffer_.size() > max_line_bytes_) {
      return Status::InvalidArgument("request line exceeds " +
                                     std::to_string(max_line_bytes_) +
                                     " bytes");
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      const std::string mid = buffer_.empty() ? "" : " (mid-response)";
      if (err == EAGAIN || err == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (Client's per-attempt timeout).
        return Status::Unavailable("receive timed out waiting for response" +
                                   mid);
      }
      return Status::Unavailable(ErrnoText("recv", err) + mid);
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        // The peer died between framing and flushing a full line.
        return Status::Unavailable(
            "connection reset mid-response (short read: " +
            std::to_string(buffer_.size()) +
            " byte(s) buffered without a newline)");
      }
      return Status::Unavailable("connection closed by server");
    }
    if (fault_point_ != nullptr && fault::InjectFault(fault_point_)) {
      return fault::InjectedError(fault_point_);
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

LoopbackListener::LoopbackListener(std::function<void(int fd)> serve,
                                   metrics::Counter* accepted)
    : serve_(std::move(serve)), accepted_(accepted) {}

LoopbackListener::~LoopbackListener() { Stop(); }

Status LoopbackListener::Start(uint16_t port) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("already listening on 127.0.0.1:" +
                                      std::to_string(port_));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket", errno));
  auto fail = [fd](Status status) {
    ::close(fd);
    return status;
  };
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    if (err == EADDRINUSE) {
      return fail(Status::Unavailable(
          "port " + std::to_string(port) +
          " is already in use on 127.0.0.1 (is another pfqld or pfqlr "
          "running? pick a different --port or stop the other server)"));
    }
    return fail(Status::Unavailable(
        ErrnoText("bind 127.0.0.1:" + std::to_string(port), err)));
  }
  socklen_t len = sizeof(addr);
  if (::listen(fd, kBacklog) != 0) {
    return fail(Status::Internal(ErrnoText("listen", errno)));
  }
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail(Status::Internal(ErrnoText("getsockname", errno)));
  }
  if (::pipe(stop_pipe_) != 0) {
    return fail(Status::Internal(ErrnoText("pipe", errno)));
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LoopbackListener::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (listen_fd_ < 0) return;
  // With the accept thread gone, no connection thread can start after the
  // ones collected below.
  const char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  accept_thread_.join();

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Unblock connection threads stuck in recv(); each still closes its
    // own fd, which it cannot have done while the fd is in `live_`.
    for (auto& [fd, thread] : live_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    live_.clear();
    for (auto& thread : finished_) threads.push_back(std::move(thread));
    finished_.clear();
  }
  for (auto& thread : threads) thread.join();

  ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : stop_pipe_) {
    ::close(fd);
    fd = -1;
  }
}

void LoopbackListener::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    accepted_->Increment();

    std::lock_guard<std::mutex> lock(mu_);
    // Join before spawning, so the new thread can reuse a freed stack.
    // A finished thread no longer takes mu_.
    for (auto& thread : finished_) thread.join();
    finished_.clear();
    try {
      live_[fd] = std::thread([this, fd] { RunConnection(fd); });
    } catch (const std::system_error& e) {
      live_.erase(fd);
      ::close(fd);
      std::fprintf(stderr, "%% refused a connection: %s\n", e.what());
    }
  }
}

void LoopbackListener::RunConnection(int fd) {
  try {
    serve_(fd);
  } catch (const std::system_error& e) {
    // A thread the connection needs (its writer) could not start.
    std::fprintf(stderr, "%% refused a connection: %s\n", e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Hand this thread to the next accept to join, unless Stop() already
    // took it.
    if (auto it = live_.find(fd); it != live_.end()) {
      finished_.push_back(std::move(it->second));
      live_.erase(it);
    }
  }
  ::close(fd);
}

}  // namespace server
}  // namespace pfql
