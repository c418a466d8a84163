#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rebooting::net {

namespace {

void set_errno_message(std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
}

/// The request/response frames here are small; Nagle would add 40 ms stalls
/// to every sync round trip.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

bool Socket::read_exact(void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got == 0) return false;  // peer closed
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool Socket::write_all(const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_to(const std::string& host, std::uint16_t port,
                  std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                   &result);
      rc != 0) {
    if (error) *error = std::string("getaddrinfo: ") + ::gai_strerror(rc);
    return Socket{};
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    set_errno_message(error, "connect");
    return Socket{};
  }
  set_nodelay(fd);
  return Socket{fd};
}

bool Listener::listen_on(const std::string& host, std::uint16_t port,
                         std::string* error) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "listen_on: not an IPv4 address: " + host;
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_message(error, "socket");
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    set_errno_message(error, "bind/listen");
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    set_errno_message(error, "getsockname");
    ::close(fd);
    return false;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return true;
}

Socket Listener::accept(int timeout_ms) {
  if (fd_ < 0) return Socket{};
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || !(pfd.revents & POLLIN)) return Socket{};
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Socket{};
  set_nodelay(fd);
  return Socket{fd};
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameRead read_frame(Socket& sock, std::string* out, std::size_t max_bytes) {
  unsigned char prefix[4];
  // Distinguish a clean close (nothing read) from a mid-prefix disconnect:
  // peek the first byte, then read the prefix for real.
  {
    const ssize_t got = ::recv(sock.fd(), prefix, 1, 0);
    if (got == 0) return FrameRead::kEof;
    if (got < 0) return errno == EINTR ? read_frame(sock, out, max_bytes)
                                       : FrameRead::kError;
  }
  if (!sock.read_exact(prefix + 1, 3)) return FrameRead::kError;
  const std::uint32_t n = (std::uint32_t{prefix[0]} << 24) |
                          (std::uint32_t{prefix[1]} << 16) |
                          (std::uint32_t{prefix[2]} << 8) |
                          std::uint32_t{prefix[3]};
  if (n > max_bytes) return FrameRead::kOversized;
  out->resize(n);
  if (n > 0 && !sock.read_exact(out->data(), n)) return FrameRead::kError;
  return FrameRead::kFrame;
}

bool write_frame(Socket& sock, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFull) return false;
  const auto n = static_cast<std::uint32_t>(payload.size());
  // Prefix and payload leave in one send: with TCP_NODELAY set, two sends
  // cost two segments and two receiver wake-ups per frame, paid by whichever
  // thread writes the reply (a scheduler worker, for rebootd).
  std::string frame;
  frame.reserve(4 + payload.size());
  frame += static_cast<char>(n >> 24);
  frame += static_cast<char>(n >> 16);
  frame += static_cast<char>(n >> 8);
  frame += static_cast<char>(n);
  frame += payload;
  return sock.write_all(frame.data(), frame.size());
}

}  // namespace rebooting::net
