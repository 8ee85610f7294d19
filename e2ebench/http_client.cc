#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace churnlab {
namespace e2e {

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status HttpClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Status::IOError("connect 127.0.0.1:" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status HttpClient::RoundTrip(std::string_view wire, int* status_code,
                             std::string_view* body) {
  CHURNLAB_RETURN_NOT_OK(Send(wire));
  bool taken = false;
  for (;;) {
    CHURNLAB_RETURN_NOT_OK(TakeResponse(&taken, status_code, body));
    if (taken) return Status::OK();
    CHURNLAB_RETURN_NOT_OK(ReadMore());
  }
}

Status HttpClient::Send(std::string_view wire) {
  while (!wire.empty()) {
    const ssize_t sent = ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    wire.remove_prefix(static_cast<size_t>(sent));
  }
  return Status::OK();
}

Status HttpClient::TakeResponse(bool* taken, int* status_code,
                                std::string_view* body) {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  *taken = false;
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) return Status::OK();
  int code = 0;
  if (std::sscanf(buffer_.c_str(), "HTTP/1.%*d %d", &code) != 1) {
    return Status::IOError("malformed HTTP status line");
  }
  const std::string_view head(buffer_.data(), header_end);
  const size_t at = head.find("Content-Length: ");
  if (at == std::string_view::npos) {
    return Status::IOError("response without Content-Length");
  }
  const size_t length = static_cast<size_t>(
      std::strtoull(buffer_.c_str() + at + 16, nullptr, 10));
  const size_t total = header_end + 4 + length;
  if (buffer_.size() < total) return Status::OK();
  consumed_ = total;
  *taken = true;
  *status_code = code;
  *body = std::string_view(buffer_).substr(header_end + 4, length);
  return Status::OK();
}

Status HttpClient::ReadMore() {
  char chunk[16384];
  for (;;) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<size_t>(got));
      // Acknowledge at once. The server leaves Nagle on, so with pipelined
      // requests a delayed ACK would hold each response until the next
      // request carried the ACK, one request interval later. The kernel
      // clears the flag again, hence after every read.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      return Status::OK();
    }
    if (got == 0) return Status::IOError("server closed the connection");
    if (errno != EINTR) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

int64_t JsonUintField(std::string_view json, std::string_view key) {
  std::string quoted = "\"";
  quoted.append(key).append("\":");
  const size_t at = json.find(quoted);
  if (at == std::string_view::npos) return -1;
  size_t pos = at + quoted.size();
  if (pos >= json.size() || json[pos] < '0' || json[pos] > '9') return -1;
  int64_t value = 0;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + (json[pos] - '0');
    ++pos;
  }
  return value;
}

}  // namespace e2e
}  // namespace churnlab
